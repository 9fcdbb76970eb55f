import random
import sys
from fractions import Fraction

import pytest

from circuitmarket import RationalFormatError, format_rational, parse_rational
from circuitmarket.rationals import format_pair


def test_parse_integers_and_fractions():
    assert parse_rational("3") == 3
    assert parse_rational("-7") == -7
    assert parse_rational("4/11") == Fraction(4, 11)
    assert parse_rational(" 1/12 ") == Fraction(1, 12)


def test_format_round_trip():
    for value in [Fraction(0), Fraction(1, 11), Fraction(-3, 7), Fraction(5)]:
        assert parse_rational(format_rational(value)) == value
    # seeded signed, zero and multi-hundred-bit values; format_pair also
    # reads unreduced pairs, the same value times a common factor
    rng = random.Random(1619)
    for _ in range(3000):
        bits = rng.choice((8, 64, 300, 700))
        n = rng.choice((0, rng.randint(-(2**bits), 2**bits)))
        d = rng.randint(1, 2 ** rng.choice((1, 8, 64, 300, 700)))
        value = Fraction(n, d)
        text = format_rational(value)
        assert parse_rational(text) == value
        factor = rng.choice((1, 1, 6, 2**61 - 1, 3**200))
        assert format_pair(n * factor, d * factor) == text


# digits that int() and the regex class \d read, but an exact rational's
# text does not hold: Arabic-Indic two and one, and a full-width two
NOT_ASCII_RATIONALS = ["1/1\u0662", "\u0662", "-\u0662", "\u0661/2", "\uff12/3"]


@pytest.mark.parametrize(
    "bad", ["0.5", "1e-3", "1/0", "1/-2", "", "a/b", "1 / 2", "+3"] + NOT_ASCII_RATIONALS
)
def test_rejects_non_exact_forms(bad):
    with pytest.raises(RationalFormatError):
        parse_rational(bad)


def test_rejects_non_strings():
    with pytest.raises(RationalFormatError):
        parse_rational(0.5)


def test_rejects_numbers_beyond_int_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int() digit limit")
    digits = "1" * (limit + 1)
    for text in (digits, f"1/{digits}"):
        with pytest.raises(RationalFormatError, match="too long"):
            parse_rational(text)
