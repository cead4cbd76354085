"""The printer that ``topzeta.zeta.poly_str`` was before it read only the
powers a caller names, kept as it was: the reference that the strided
print of a characteristic polynomial is tested against.  It reads every
coefficient: a reversed slice, ``filter`` and ``compress`` over all the
powers."""

from itertools import compress


class _TermFormats(dict):
    """The format of a term by its coefficient: " + 3*t^%d", " - t^%d"."""

    def __init__(self, var):
        super().__init__()
        self.var = var

    def __missing__(self, c):
        mag = abs(c)
        head = (" + " if c > 0 else " - ") + ("" if mag == 1 else f"{mag}*")
        fmt = self[c] = f"{head}{self.var}^%d"
        return fmt


def poly_str(coeffs, var):
    """Human form of a coefficient list, highest power first: one format
    per nonzero coefficient, joined and applied to their exponents at once."""
    formats = _TermFormats(var)
    high = coeffs[:1:-1]        # the coefficients of var^2 and up, highest first
    text = "".join(map(formats.__getitem__, filter(None, high)))
    if len(coeffs) > 1 and coeffs[1]:
        text += formats[coeffs[1]][:-3]
    if coeffs and coeffs[0]:
        c = coeffs[0]
        text += f"{' + ' if c > 0 else ' - '}{abs(c)}"
    if not text:
        return "0"
    text %= tuple(compress(range(len(coeffs) - 1, 1, -1), high))
    return text[3:] if text[1] == "+" else "-" + text[3:]
