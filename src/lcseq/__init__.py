"""lcseq: linear complexity and minimal polynomials of periodic binary
sequences, with an instrumented bit-operation meter."""

from . import cyclicseq, gf2poly, lincomplex, oracle
from .cyclicseq import *
from .gf2poly import *
from .lincomplex import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*cyclicseq.__all__, *gf2poly.__all__, *lincomplex.__all__, *oracle.__all__]
