"""Instruction-fetch front end.

Implements the I-unit of Figure 4: the branch history table used to steer
fetch, the return-address stack, and the five-stage fetch pipeline that
delivers up to eight instructions (32 bytes) per cycle to the decoder.
"""

from repro.frontend.bht import BhtParams, BranchHistoryTable, BhtStats
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.fetch import FetchUnit, FrontEndParams

__all__ = [
    "BhtParams",
    "BranchHistoryTable",
    "BhtStats",
    "ReturnAddressStack",
    "FetchUnit",
    "FrontEndParams",
]
