"""Extended nonnegative rationals: exact Fraction values plus a +infinity element.

Weight vectors take values in Q>=0 together with +inf; +inf absorbs addition
and dominates min.  The convention 0 * inf = 0 is used throughout, matching
monoid homomorphisms into the extended half-line.
"""

from __future__ import annotations

from fractions import Fraction


class _Infinity:
    """Singleton +infinity compatible with Fraction comparisons."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("logskel-inf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("negated infinity is not an extended weight")


INF = _Infinity()


def is_inf(x) -> bool:
    return x is INF


def q(value) -> Fraction:
    """Coerce int/str/Fraction to an exact Fraction; anything else is a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        _check_digits(value)
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(f"not an exact rational: {value!r}")


def _check_digits(text):
    """Refuses (ValueError) a decimal whose mantissa digits plus |exponent|
    exceed Python's integer string limit, read off the string: ``Fraction``
    would first build 10^|exponent|, in time that grows without bound."""
    mantissa, _, exponent = text.lower().partition("e")
    if not exponent:  # no power of 10 to build
        return
    import sys

    exponent = exponent.strip().replace("_", "").lstrip("+-")
    digits, limit = exponent.lstrip("0"), sys.get_int_max_str_digits()  # limit 0: none
    if exponent.isdecimal() and limit and (
            len(digits) > len(str(limit)) or sum(map(str.isdecimal, mantissa)) + int(digits or 0) > limit):
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise ValueError(f"not an exact rational within {limit} digits: {shown!r}")


def parse_ext(value):
    """Parse "p/q" or "inf" (also accepts int/Fraction)."""
    if value is INF:
        return INF
    if isinstance(value, str) and value.strip().lower() in ("inf", "+inf", "infinity"):
        return INF
    return q(value)


_SHAPES = {(int, None): "an integer", (str, None): "a string", (list, None): "a list",
           (dict, None): "a JSON object", (list, dict): "a list of JSON objects"}


def json_value(value, name, error, kind, item=None, what=None):
    """``value`` if its type is exactly ``kind`` (so True is no integer), and
    with ``item`` given, if it is a list of ``item``; otherwise raises
    ``error("<name> <value!r> is not <what>")``, ``what`` defaulting to the
    shape's phrase in ``_SHAPES``."""
    if type(value) is not kind or item is not None and any(type(x) is not item for x in value):
        raise error(f"{name} {value!r} is not {what or _SHAPES[kind, item]}")
    return value


def fmt(value) -> str:
    """Format a Fraction or INF as "p/q" / "p" / "inf"."""
    if value is INF:
        return "inf"
    f = q(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def xmin(values):
    """Minimum of extended rationals; min over the empty list is inf."""
    best = INF
    for v in values:
        if v is INF:
            continue
        if best is INF or v < best:
            best = v
    return best


def xscale(c: Fraction, a):
    """c * a with c a finite rational >= 0 and a extended; 0 * inf = 0."""
    if a is INF:
        if c == 0:
            return Fraction(0)
        if c < 0:
            raise ArithmeticError("negative multiple of infinity")
        return INF
    return c * a


def xdot(exponents, weights):
    """<gamma, alpha> with integer exponents and extended weights.

    Zero exponents contribute 0 even against infinite weights; a negative
    exponent against an infinite weight is refused (ValueError), wherever it
    stands: the function is not regular at such a point.
    """
    if any(g < 0 and a is INF for g, a in zip(exponents, weights)):
        raise ValueError("negative exponent at an infinite weight")
    total = Fraction(0)
    for g, a in zip(exponents, weights):
        if g == 0:
            continue
        if a is INF:
            return INF
        total += g * a
    return total
