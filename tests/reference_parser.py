"""The character scanner that ``topzeta.newton.parse_poly`` used before it
read each term with one regular expression, kept as it was: the reference
that the regular expression is tested against.  It walks the text one
character at a time, so it states each step of the grammar on its own."""

from fractions import Fraction

from topzeta.newton import ParseError


def parse_poly(text: str) -> dict:
    """Parse to a sparse map (exponent pair) -> nonzero int, or Fraction for a/b."""
    terms = {}
    i = 0
    n = len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    def read_int(j):
        start = j
        while j < n and text[j].isdigit():
            j += 1
        if j == start:
            raise ParseError("expected digits", start)
        try:
            return int(text[start:j]), j
        except ValueError:      # past Python's digit limit, or a digit int() refuses
            raise ParseError(f"cannot read the {j - start}-digit integer", start) from None

    def skip_star(j):
        # a '*' must be followed by a factor of its term
        k = skip_ws(j + 1)
        if k == n or text[k] in "+-":
            raise ParseError("unexpected character '*'", j)
        return k

    i = skip_ws(i)
    if i == n:
        raise ParseError("empty input", 0)
    while i < n:
        # a sign is optional, and found before every term but the first:
        # each term must end at '+', '-' or the end of the input
        sign, start = 1, i
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)

        coef = 1
        has_content = False
        if i < n and text[i].isdigit():
            coef, i = read_int(i)
            i = skip_ws(i)
            if i < n and text[i] == "/":
                i = skip_ws(i + 1)
                den_start = i
                den, i = read_int(i)
                if den == 0:
                    raise ParseError("zero denominator", den_start)
                coef = Fraction(coef, den)
            has_content = True
            i = skip_ws(i)
            if i < n and text[i] == "*":
                i = skip_star(i)
        ex = ey = 0
        if i < n and text[i] == "x":
            i = skip_ws(i + 1)
            ex = 1
            if i < n and text[i] == "^":
                i = skip_ws(i + 1)
                ex, i = read_int(i)
            has_content = True
            i = skip_ws(i)
            if i < n and text[i] == "*":
                i = skip_star(i)
        if i < n and text[i] == "y":
            i = skip_ws(i + 1)
            ey = 1
            if i < n and text[i] == "^":
                i = skip_ws(i + 1)
                ey, i = read_int(i)
            has_content = True
            i = skip_ws(i)
        if not has_content:
            if i < n:
                raise ParseError(f"unexpected character {text[i]!r}", i)
            raise ParseError("expected a term", start)
        if i < n and text[i] not in "+-":
            raise ParseError(f"unexpected character {text[i]!r}", i)
        key = (ex, ey)
        terms[key] = terms.get(key, 0) + sign * coef
        if terms[key] == 0:
            del terms[key]
    if not terms:
        raise ValueError("zero polynomial")
    if (0, 0) in terms:
        raise ValueError("nonzero constant term: the curve must pass through the origin")
    return terms
