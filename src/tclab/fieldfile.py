"""Line-based field description files.

Format (one directive per line, '#' starts a comment):

    label sqrt5
    poly -1 -1 1
    basis 1 0 / 1/2 1/2

`poly` lists ascending integer coefficients of a monic defining
polynomial.  `basis` is optional and gives the rows of an integral basis
in power-basis coordinates (entries are rationals, rows separated by
'/').  Without it the order is Z[theta].  The order must contain Z[theta],
be closed under multiplication and be shown maximal: at every prime q
with q^2 | disc(O), q must not divide [O : Z[theta]] and Dedekind's
criterion must hold for Z[theta] at q.  NumberField refuses any other
order with FieldError.  Errors carry the file name and line number.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .numberfield import FieldError, NumberField


class FieldFileError(ValueError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = message


def parse_field_text(text: str, path="<string>") -> NumberField:
    label = None
    poly = None
    basis = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key == "label":
            if len(args) != 1:
                raise FieldFileError(path, line_no, "label takes exactly one word")
            label = args[0]
        elif key == "poly":
            if poly is not None:
                raise FieldFileError(path, line_no, "duplicate poly directive")
            try:
                poly = tuple(int(a) for a in args)
            except ValueError as exc:
                raise FieldFileError(path, line_no, f"bad coefficient: {exc}")
            if len(poly) < 2:
                raise FieldFileError(path, line_no, "poly needs degree at least 1")
            if poly[-1] != 1:
                raise FieldFileError(
                    path, line_no,
                    f"polynomial must be monic (leading coefficient {poly[-1]})")
        elif key == "basis":
            # rows are separated by a standalone '/'; entries like 1/2
            # keep their slash attached
            rows: list[list[str]] = [[]]
            for tok in args:
                if tok == "/":
                    rows.append([])
                else:
                    rows[-1].append(tok)
            basis = []
            for row in rows:
                try:
                    basis.append([Fraction(e) for e in row])
                except ValueError as exc:
                    raise FieldFileError(path, line_no, f"bad basis entry: {exc}")
        else:
            raise FieldFileError(path, line_no, f"unknown directive {key!r}")
    if poly is None:
        raise FieldFileError(path, 0, "missing poly directive")
    if basis is not None:
        n = len(poly) - 1
        if len(basis) != n or any(len(r) != n for r in basis):
            raise FieldFileError(path, 0, f"basis must be {n} rows of {n} entries")
    try:
        return NumberField(poly, integral_basis=basis, label=label)
    except FieldError as exc:
        raise FieldFileError(path, 0, str(exc))


def parse_field_file(path) -> NumberField:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise FieldFileError(path, 0, f"cannot read: {exc}")
    return parse_field_text(text, path=p)
