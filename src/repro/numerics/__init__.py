"""Number-format substrate: fixed point, minifloats and ordered encodings.

Flex-SFU supports 8-, 16- and 32-bit fixed- and floating-point operands;
this subpackage provides software codecs for all of them plus the
order-preserving integer mappings that let one unsigned comparator serve
every format in the address-decoding unit.
"""

from .fixedpoint import (
    FixedPointFormat,
    Q0_7,
    Q3_4,
    Q3_12,
    Q7_8,
    Q15_16,
    ROUND_FLOOR,
    ROUND_NEAREST_AWAY,
    ROUND_NEAREST_EVEN,
    ROUND_TRUNCATE,
)
from .floatformat import (
    BF16,
    FP16,
    FP32,
    FP8_E4M3,
    FP8_E5M2,
    FloatFormat,
    OVERFLOW_INF,
    OVERFLOW_SATURATE,
    float_format,
)
from .ordered import (
    KIND_FIXED,
    KIND_FLOAT,
    canonicalize_zero,
    compare_encoded,
    from_ordered,
    to_ordered,
)

__all__ = [
    "FixedPointFormat",
    "FloatFormat",
    "float_format",
    "FP8_E4M3",
    "FP8_E5M2",
    "FP16",
    "BF16",
    "FP32",
    "Q0_7",
    "Q3_4",
    "Q7_8",
    "Q3_12",
    "Q15_16",
    "ROUND_NEAREST_EVEN",
    "ROUND_NEAREST_AWAY",
    "ROUND_TRUNCATE",
    "ROUND_FLOOR",
    "OVERFLOW_INF",
    "OVERFLOW_SATURATE",
    "KIND_FIXED",
    "KIND_FLOAT",
    "to_ordered",
    "from_ordered",
    "compare_encoded",
    "canonicalize_zero",
]
