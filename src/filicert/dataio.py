"""Algebra-definition file format: parser, serializer, bundled catalog.

The format is a line-oriented sectioned text file (UTF-8, LF, ``#`` starts a
comment anywhere on a line) with one assignment per line:

    [algebra]
    name = mu11
    dim = 8
    params =                      # "alpha" for one-parameter families

    [basis-change]                # optional; stored, never verified
    Y2 = (2/5)*X6 - X7 + X8

    [brackets]                    # optional only for inert metadata files
    bracket 1 3 = -Y5 - Y8

    [deformation]                 # optional: ideal, complement, diagonal D
    ideal = 2 3 4 5 6 7 8
    outside = 1
    D = 1 2 3 4 5 6 7

    [certificate]                 # optional: sparse entries of g_t
    parameter = 1/t               # only for reciprocally parametrized g_t
    g 3 1 = -(8/5)*t*(t^4-1)

    [derivation]                  # optional: an inert 8x8 derivation matrix
    d 3 6 = 3

    [errata]                      # optional: reviewed corrections
    entry = g 5 2
    original = ...                # free text, kept verbatim
    corrected = ...               # expression; applied only on request
    note = ...

Expressions use rationals written ``p/q`` or integers, the symbols ``t`` and
``alpha``, the operators ``+ - * ^`` and parentheses; ``^`` takes an integer
literal exponent, negative only on ``t``.  Bracket and basis-change values
are linear combinations of basis symbols ``Y1..Yn`` (resp. ``X1..Xn``) with
expression coefficients.  Every expression may use only the parameters
declared in the header; ``t`` is additionally allowed in certificate entries.

The parser evaluates an expression while it reads it: each grammar rule
returns the value of its text as one monomial map ``{(k, e_t, e_alpha):
coeff}`` (k = 0 the scalar part, k = 1..dim a basis symbol, kept where it
cancels, so ``Y1*0*Y2`` is still nonlinear), and no syntax tree is built.
The map becomes one Scalar per output cell, so an integral coefficient is an
int, and a basis-change row one Fraction per entry.  A minus sign goes into
the literal or symbol it stands before, so -p/q builds one Fraction.  Errors
come in a fixed order.  A syntax error
(:class:`ParseError`, with line and column) anywhere on a line wins over a
semantic one (:class:`ValidationError`: an undeclared symbol, a basis index
out of range, a nonlinear term, an oversized power or product), so the first
semantic error is held until the whole line has parsed.  Among semantic
errors the first in evaluation order is reported, where a negative exponent
on anything but a bare ``t`` counts before any error inside its base;
parentheses do not matter, so ``(t)^-1`` is bare and ``(1*t)^-1`` is not.
Parentheses nested more than ``MAX_NESTING`` deep are a syntax error.

Loading validates every structural invariant; errata are stored but applied
only when the corrected variant is requested explicitly.  An error in an
evaluated text starts with ``<file>:<line>:`` like a structural one, and the
column of a syntax error counts from the start of that line.  Within one
load_corpus call each distinct text is parsed once: every file that repeats
it under the same parameters, basis prefix and dim shares the result, which
no later call sees.  A failing text is parsed again, so it fails at its line.
"""

from __future__ import annotations

import re
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ParseError, ValidationError
from .lie import Column, StructureConstants
from .linalg import ScalarMatrix
from .scalar import ZERO, Scalar

VERIFIED_NAMES = ("mu01", "mu02", "mu06", "mu08", "mu09", "mu10",
                  "mu11", "mu13", "mu15", "mu17")

SECTION_ORDER = ("algebra", "basis-change", "brackets", "deformation",
                 "certificate", "derivation", "errata")

# Resource bounds on dim and on the degree in t or alpha and the coefficient
# bits of a power or product, checked before the work is done; the bundled
# catalog has dim 8, exponents up to 13, degree 16 and 15-bit coefficients.
MAX_DIM = 16
MAX_DEGREE = 64
MAX_BITS = 4096
# A longer run of digits is a number of more than MAX_BITS bits; rejecting it
# before int() also keeps clear of Python's 4,300-digit conversion limit.
MAX_DIGITS = len(str(1 << MAX_BITS))  # 1234
# Each parenthesis level is four recursive parser calls; the catalog nests 2 deep.
MAX_NESTING = 64


def _is_digits(text: str) -> bool:
    """True iff text is a run of at most MAX_DIGITS decimal digits."""
    return text.isdecimal() and len(text) <= MAX_DIGITS


def data_dir() -> Path:
    """Directory holding the bundled catalog."""
    return Path(__file__).parent / "data"


# -- expressions ---------------------------------------------------------------

# One token per match: an operator, a number p or p/q (an empty q is an error),
# a word, or any other character but a space (an error).  ``\s``, ``\d`` and
# ``\w`` are exactly str.isspace, str.isdecimal and (str.isalnum or "_"); a word
# must still start with a letter, because ``\w`` also matches digits such as "²".
_TOKEN = re.compile(r"[-+*^()]|\d+(?:/\d*)?|\w+|\S")
_OPERATORS = frozenset("+-*^()")


def _column(text: str, index: int) -> int:
    """The column of token `index` of a line (past the last, the end of
    input); only errors need it, so tokens do not carry it."""
    match = next(islice(_TOKEN.finditer(text), index, None), None)
    return match.start() + 1 if match else len(text) + 1


def _tokenize(text: str, line: int) -> tuple[list[str], list]:
    """The texts of the tokens of a line, then "" for the end of input; and
    at the index of each number its value, an int or (p, q) for p/q."""
    tokens = _TOKEN.findall(text)
    values = [None] * (len(tokens) + 1)
    for index, token in enumerate(tokens):
        if token in _OPERATORS or token[0].isalpha():
            continue
        numerator, slash, denominator = token.partition("/")
        if not token[0].isdecimal():
            error = f"unexpected character {token[0]!r}"
        elif slash and not denominator:
            raise ParseError("missing denominator", line, _column(text, index) + len(token),
                             ("digit",))
        elif len(numerator) > MAX_DIGITS or len(denominator) > MAX_DIGITS:
            error = f"number with more than {MAX_DIGITS} digits"
        elif slash and not int(denominator):
            error = "zero denominator"
        else:
            values[index] = (int(numerator), int(denominator)) if slash else int(numerator)
            continue
        raise ParseError(error, line, _column(text, index))
    tokens.append("")
    return tokens, values


# The value of an expression (see the module docstring); its scalar part has no 0.
_Value = dict[tuple[int, int, int], int | Fraction]
_coordinate = itemgetter(0)


def _size(terms: Iterable[tuple]) -> tuple[int, int, int]:
    """The count, the degree in t or alpha, and the coefficient bits plus the
    count's bits of the nonzero (key, coeff) terms: what bounds are checked on."""
    count = degree = bits = 0
    for (_, e_t, e_alpha), coeff in terms:
        if coeff:
            count += 1
            degree = max(degree, abs(e_t), e_alpha)
            bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
    return count, degree, bits + count.bit_length()


def _too_large(kind: str, degree: int, bits: int, line: int) -> str | None:
    """Why a power or product is rejected before it is computed, if its bound
    (the base's `_size` times the exponent, the sum of the factors') is over."""
    if degree > MAX_DEGREE or bits > MAX_BITS:
        where = f" at line {line}" if line else ""
        return (f"{kind}{where} too large: degree {degree} (at most {MAX_DEGREE}), "
                f"{bits}-bit coefficients (at most {MAX_BITS})")


def _multiply(a: _Value, b: _Value) -> _Value:
    """a * b, at most one of them with basis coordinates; those stay named in
    the product even where it is 0.  One pass when a factor is a monomial."""
    if not (a and b):
        return {(key[0], 0, 0): 0 for key in a or b if key[0]}
    if len(a) == 1 and not (len(b) == 1 and 1 in b.values()):
        a, b = b, a  # b is a monomial, of coefficient 1 if either is
    if len(b) == 1:
        ((k_b, t_b, alpha_b), c_b), = b.items()
        return {(k + k_b, e_t + t_b, e_alpha + alpha_b): c if c_b == 1 else c * c_b
                for (k, e_t, e_alpha), c in a.items()}
    product: _Value = {}
    for (k_a, t_a, alpha_a), c_a in a.items():
        for (k_b, t_b, alpha_b), c_b in b.items():
            key = (k_a + k_b, t_a + t_b, alpha_a + alpha_b)
            old = product.get(key)
            if old is None:
                product[key] = c_a * c_b
            elif (new := old + c_a * c_b) or key[0]:
                product[key] = new
            else:
                del product[key]
    return product


class _Parser:
    """Recursive descent over the tokens of one line.  A rule owns the map it
    returns, so + and - merge into it in place.  The first semantic error is
    held, and the rules read on (on placeholder values)."""

    def __init__(self, text: str, line: int, params: frozenset[str], prefix: str | None, dim: int):
        self.text, self.line, self.params, self.prefix, self.dim = text, line, params, prefix, dim
        self.tokens, self.values = _tokenize(text, line)
        self.pos = self.depth = 0
        self.error: str | None = None

    def hold(self, message: str) -> _Value:
        if self.error is None:
            self.error = message
        return {}

    def syntax_error(self, message: str, index: int, expected=()) -> ParseError:
        """A ParseError at token `index`, whose text fills {} in `message`."""
        return ParseError(message.format(repr(self.tokens[index] or "end of input")),
                          self.line, _column(self.text, index), expected)

    def parse(self) -> _Value:
        value = self.expr()
        if self.pos != len(self.tokens) - 1:
            raise self.syntax_error("unexpected trailing token {}", self.pos, ("end of input",))
        if self.error is not None:
            raise ValidationError(self.error)
        return value

    def expr(self, sign: int = 1) -> _Value:
        value = self.term(sign)
        while (op := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            for key, coeff in self.term(-sign if op == "-" else sign).items():
                old = value.get(key)
                if old is None:
                    value[key] = coeff
                elif (new := old + coeff) or key[0]:
                    value[key] = new
                else:
                    del value[key]
        return value

    def term(self, sign: int = 1) -> _Value:
        """A product times `sign` and its unary minus signs, which go into the
        first factor down to a literal or symbol: -p/q builds one Fraction."""
        while self.tokens[self.pos] == "-":
            self.pos += 1
            sign = -sign
        value = self.factor(sign)
        while self.tokens[self.pos] == "*":
            self.pos += 1
            right = self.factor()
            if self.error is None:
                value = self.product(value, right)
        return value

    def product(self, a: _Value, b: _Value) -> _Value:
        """a * b, after the bound on each coordinate whose two factors have two
        or more terms each (the scalar part first, then the basis symbols as
        the text names them): a monomial factor grows a product only linearly
        in the length of the line."""
        if any(map(_coordinate, b)):
            if any(map(_coordinate, a)):
                return self.hold("product of basis symbols is not linear")
            a, b = b, a
        if len(a) > 1 and len(b) > 1:  # b has no zero coefficient
            _, degree_b, bits_b = _size(b.items())
            for k in dict.fromkeys([0, *map(_coordinate, a)]):
                count, degree, bits = _size(item for item in a.items() if item[0][0] == k)
                if count > 1 and (error := _too_large("product", degree + degree_b,
                                                      bits + bits_b, self.line)):
                    return self.hold(error)
        return _multiply(a, b)

    def factor(self, sign: int = 1) -> _Value:
        start, error = self.pos, self.error
        value = self.base(sign)
        if self.tokens[self.pos] != "^":
            return value
        if sign > 0:
            return self.power(value, start, error)
        # -x^n is -(x^n): the sign comes back out of the base, and onto the power
        power = self.power({key: -coeff for key, coeff in value.items()}, start, error)
        return {key: -coeff for key, coeff in power.items()}

    def power(self, value: _Value, start: int, error: str | None) -> _Value:
        """`value`, the base read from token `start` on with `error` held
        before it, to the power that follows."""
        end = self.pos
        negative = self.tokens[end + 1] == "-"
        self.pos = end + 1 + negative
        exponent = self.values[self.pos]
        if exponent is None:
            raise self.syntax_error("unexpected token {}", self.pos, ("number",))
        numerator, denominator = exponent if type(exponent) is tuple else (exponent, 1)
        if numerator % denominator:
            raise self.syntax_error("exponent must be an integer literal", self.pos, ("integer",))
        self.pos += 1
        exponent = -(numerator // denominator) if negative else numerator // denominator
        if exponent < 0 and [token for token in self.tokens[start:end]
                             if token not in "()"] != ["t"]:
            # checked before anything inside the base: (t) and ((t)) are bare
            if error is None:
                self.error = "negative exponents are allowed only on t"
            return {}
        if self.error is not None:
            return {}
        if any(map(_coordinate, value)):
            if exponent != 1:
                return self.hold("basis symbols cannot be raised to a power")
            return value
        _, degree, bits = _size(value.items())
        if error := _too_large("power", abs(exponent) * degree, abs(exponent) * bits, self.line):
            return self.hold(error)
        if len(value) == 1:  # one step; a negative exponent is on t, of coefficient 1
            ((_, e_t, e_alpha), coeff), = value.items()
            return {(0, exponent * e_t, exponent * e_alpha): coeff ** max(exponent, 0)}
        power: _Value = {(0, 0, 0): 1}
        while exponent:  # square and multiply, as Scalar.__pow__; 0 is the empty map
            if exponent & 1:
                power = _multiply(power, value)
            exponent >>= 1
            if exponent:
                value = _multiply(value, value)
        return power

    def base(self, sign: int = 1) -> _Value:
        token, value = self.tokens[self.pos], self.values[self.pos]
        self.pos += 1
        if value is not None:
            value = Fraction(sign * value[0], value[1]) if type(value) is tuple else sign * value
            return {(0, 0, 0): value} if value else {}
        if token[:1].isalpha():
            if token == "t" and "t" in self.params:
                return {(0, 1, 0): sign}
            if token == "alpha" and "alpha" in self.params:
                return {(0, 0, 1): sign}
            digits = token[len(self.prefix or ""):]
            if self.prefix and token.startswith(self.prefix) and digits.isdecimal():
                if not (len(digits) <= MAX_DIGITS and 1 <= int(digits) <= self.dim):
                    return self.hold(f"basis index {token} out of range 1..{self.dim}")
                return {(int(digits), 0, 0): sign}
            return self.hold(f"undeclared symbol {token!r}")
        if token == "(":
            if self.depth == MAX_NESTING:
                raise self.syntax_error(f"parentheses nested more than {MAX_NESTING} deep",
                                        self.pos - 1)
            self.depth += 1
            value = self.expr(sign)
            if self.tokens[self.pos] != ")":
                raise self.syntax_error("unexpected token {}", self.pos, (")",))
            self.pos += 1
            self.depth -= 1
            return value
        raise self.syntax_error("unexpected token {}", self.pos - 1, ("number", "symbol", "'('"))


_parsed: ContextVar[dict | None] = ContextVar("parsed", default=None)  # see _evaluate


def _evaluate(finish, text: str, params: Iterable[str], prefix: str | None, dim: int, line: int):
    """finish(value of `text`, dim), once a combination of basis symbols (a
    `prefix`) has no scalar part.  While load_corpus runs, it is kept under
    (finish, text, params, prefix, dim), all it depends on; the line only
    shapes errors, so a failing text is parsed again and fails with its own."""
    params = frozenset(params)
    key, parsed = (finish, text, params, prefix, dim), _parsed.get()
    if (result := (parsed or {}).get(key)) is None:
        value = _Parser(text, line, params, prefix, dim).parse()
        if prefix and (scalar := {term[1:]: c for term, c in value.items() if not term[0]}):
            raise ValidationError(f"value must be a combination of {prefix}-symbols, "
                                  f"found scalar part {Scalar(scalar)}")
        result = finish(value, dim)
        if parsed is not None:
            parsed[key] = result
    return result


def _to_scalar(value: _Value, dim: int) -> Scalar:
    return Scalar({(e_t, e_alpha): coeff for (_, e_t, e_alpha), coeff in value.items()})


def _to_column(value: _Value, dim: int) -> Column:
    cells: list[dict] = [{} for _ in range(dim + 1)]
    for (k, e_t, e_alpha), coeff in value.items():
        cells[k][(e_t, e_alpha)] = coeff
    return tuple(Scalar(terms) if terms else ZERO for terms in cells[1:])


def _to_rationals(value: _Value, dim: int) -> tuple[Fraction, ...]:
    """A combination of basis symbols without parameters, as rationals."""
    row = [ZERO.constant_value()] * dim
    for (k, _, _), coeff in value.items():
        row[k - 1] = Fraction(coeff)
    return tuple(row)


def parse_scalar(text: str, params: Iterable[str], line: int = 0) -> Scalar:
    """Parse and evaluate a scalar expression."""
    return _evaluate(_to_scalar, text, params, None, 0, line)


def parse_column(text: str, dim: int, prefix: str, params: Iterable[str],
                 line: int = 0) -> Column:
    """Parse a linear combination of basis symbols into a coordinate column."""
    return _evaluate(_to_column, text, params, prefix, dim, line)


# -- rendering ---------------------------------------------------------------


def render_column(column: Column, prefix: str) -> str:
    chunks = []
    for position, coeff in enumerate(column, start=1):
        if coeff.is_zero():
            continue
        body = str(coeff) if coeff.term_count() == 1 else f"({coeff})"
        chunks.append(f"{body}*{prefix}{position}")
    return " + ".join(chunks) if chunks else "0"


def compact(text: str) -> str:
    """Space-free rendering for machine-readable report fields."""
    return text.replace(" ", "")


# -- the file model ----------------------------------------------------------


@dataclass(frozen=True)
class DeformationBlock:
    ideal: tuple[int, ...]
    outside: int
    diagonal: tuple[Fraction, ...]


@dataclass(frozen=True)
class Erratum:
    target: str
    original: str | None = None
    corrected: str | None = None
    note: str = ""


@dataclass(frozen=True)
class AlgebraFile:
    name: str
    dim: int
    params: tuple[str, ...] = ()
    basis_change: Mapping[int, tuple[Fraction, ...]] | None = None
    brackets: Mapping[tuple[int, int], Column] | None = None
    deformation: DeformationBlock | None = None
    certificate: Mapping[tuple[int, int], Scalar] | None = None
    certificate_parameter: str = "t"
    derivation_meta: Mapping[tuple[int, int], Fraction] | None = None
    errata: tuple[Erratum, ...] = ()


def _int_fields(text: str, count: int, line: int, what: str) -> list[int]:
    parts = text.split()
    if len(parts) != count or not all(_is_digits(p.lstrip("-")) for p in parts):
        raise ParseError(f"expected {count} integer(s) after {what!r}", line, 1)
    return [int(p) for p in parts]


def parse_algebra(text: str, source: str = "<string>") -> AlgebraFile:
    """Parse and fully validate one algebra definition."""
    header: dict[str, str] = {}
    basis_rows: dict[int, str] = {}
    deformation_rows: dict[str, str] = {}
    certificate_parameter = "t"
    # "i j"-keyed sections: section -> the key's leading word, and its cells
    words = {"brackets": "bracket", "certificate": "g", "derivation": "d"}
    cells: dict[str, dict[tuple[int, int], str]] = {word: {} for word in words.values()}
    errata_groups: list[dict[str, str]] = []
    line_of: dict = {}

    section = None
    seen_sections = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTION_ORDER:
                raise ValidationError(f"{source}:{line_number}: unknown section [{section}]")
            if section in seen_sections:
                raise ValidationError(f"{source}:{line_number}: duplicate section [{section}]")
            seen_sections.add(section)
            continue
        if section is None:
            raise ValidationError(f"{source}:{line_number}: content before any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{source}:{line_number}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if section == "algebra":
            if key not in ("name", "dim", "params"):
                raise ValidationError(f"{source}:{line_number}: unknown header key {key!r}")
            if key in header:
                raise ValidationError(f"{source}:{line_number}: duplicate header key {key!r}")
            header[key] = value
            line_of[("algebra", key)] = line_number
        elif section == "basis-change":
            if not (key.startswith("Y") and _is_digits(key[1:])):
                raise ValidationError(f"{source}:{line_number}: expected 'Y<i> = ...'")
            index = int(key[1:])
            if index in basis_rows:
                raise ValidationError(f"{source}:{line_number}: duplicate row for {key}")
            basis_rows[index] = value
            line_of[("basis", index)] = line_number
        elif section == "deformation":
            if key not in ("ideal", "outside", "D"):
                raise ValidationError(f"{source}:{line_number}: unknown deformation key {key!r}")
            if key in deformation_rows:
                raise ValidationError(f"{source}:{line_number}: duplicate key {key!r}")
            deformation_rows[key] = value
            line_of[("deformation", key)] = line_number
        elif section == "certificate" and key == "parameter":
            if ("certificate", "parameter") in line_of:
                raise ValidationError(f"{source}:{line_number}: duplicate key 'parameter'")
            if value not in ("t", "1/t"):
                raise ValidationError(
                    f"{source}:{line_number}: parameter must be 't' or '1/t'")
            certificate_parameter = value
            line_of[("certificate", "parameter")] = line_number
        elif section in words:
            word = words[section]
            parts = key.split()
            if len(parts) != 3 or parts[0] != word:
                raise ValidationError(f"{source}:{line_number}: expected '{word} i j = ...'")
            i, j = _int_fields(" ".join(parts[1:]), 2, line_number, word)
            if (i, j) in cells[word]:
                raise ValidationError(f"{source}:{line_number}: duplicate entry {word} {i} {j}")
            cells[word][(i, j)] = value
            line_of[(word, i, j)] = line_number
        elif section == "errata":
            if key not in ("entry", "original", "corrected", "note"):
                raise ValidationError(f"{source}:{line_number}: unknown errata key {key!r}")
            if key == "entry":
                errata_groups.append({"entry": value})
            else:
                if not errata_groups:
                    raise ValidationError(
                        f"{source}:{line_number}: {key!r} before any 'entry'")
                if key in errata_groups[-1]:
                    raise ValidationError(f"{source}:{line_number}: duplicate {key!r}")
                errata_groups[-1][key] = value
            line_of[("errata", len(errata_groups), key)] = line_number

    def fail(key, message):
        line = line_of.get(key, 0)
        return ValidationError(f"{source}:{line}: {message}")

    def evaluate(finish, value, params, prefix, line, skip=0):
        """_evaluate on `value`, found `skip` characters into the value on
        `line`; an error names the file and the line, and gives a column
        from the start of the line."""
        try:
            return _evaluate(finish, value, params, prefix, dim, 0)
        except ParseError as exc:
            raw = text.splitlines()[line - 1]
            start = len(raw) - len(raw[raw.index("=") + 1:].lstrip()) + skip
            raise ParseError(exc.message, line, start + exc.column, exc.expected,
                             source) from None
        except ValidationError as exc:
            raise ValidationError(f"{source}:{line}: {exc}") from None

    # -- header ------------------------------------------------------------
    if "algebra" not in seen_sections:
        raise ValidationError(f"{source}: missing [algebra] section")
    for required in ("name", "dim"):
        if required not in header:
            raise ValidationError(f"{source}: missing header key {required!r}")
    name = header["name"]
    if not name:
        raise ValidationError(f"{source}: empty algebra name")
    dim_text = header["dim"]
    if not (dim_text.isdecimal() and len(dim_text) <= 4 and 1 <= int(dim_text) <= MAX_DIM):
        raise fail(("algebra", "dim"), f"dim must be an integer from 1 to {MAX_DIM}")
    dim = int(dim_text)
    params = tuple(header.get("params", "").split())
    if not set(params) <= {"alpha"}:
        raise fail(("algebra", "params"), "params may only declare 'alpha'")

    # -- basis change ------------------------------------------------------
    basis_change = None
    if "basis-change" in seen_sections:
        basis_change = {}
        for index, value in basis_rows.items():
            if not 1 <= index <= dim:
                raise fail(("basis", index), f"basis index Y{index} out of range")
            basis_change[index] = evaluate(_to_rationals, value, (), "X",
                                           line_of[("basis", index)])

    # -- brackets ----------------------------------------------------------
    brackets = None
    if "brackets" in seen_sections:
        brackets = {}
        for (i, j), value in cells["bracket"].items():
            if not 1 <= i < j <= dim:
                raise fail(("bracket", i, j), f"bracket indices ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
            brackets[(i, j)] = evaluate(_to_column, value, params, "Y",
                                        line_of[("bracket", i, j)])

    # -- deformation -------------------------------------------------------
    deformation = None
    if "deformation" in seen_sections:
        for required in ("ideal", "outside", "D"):
            if required not in deformation_rows:
                raise ValidationError(f"{source}: missing deformation key {required!r}")
        ideal_parts = deformation_rows["ideal"].split()
        if not ideal_parts or not all(_is_digits(p) for p in ideal_parts):
            raise fail(("deformation", "ideal"), "ideal must list basis indices")
        ideal = tuple(int(p) for p in ideal_parts)
        if len(set(ideal)) != len(ideal) or not all(1 <= k <= dim for k in ideal):
            raise fail(("deformation", "ideal"), "ideal indices must be distinct and in range")
        outside_text = deformation_rows["outside"]
        if not _is_digits(outside_text) or not 1 <= int(outside_text) <= dim:
            raise fail(("deformation", "outside"), "outside must be a basis index")
        outside = int(outside_text)
        if outside in ideal:
            raise fail(("deformation", "outside"),
                       f"outside = {outside} lies inside the ideal "
                       f"({' '.join(str(k) for k in ideal)})")
        diag_line = line_of[("deformation", "D")]
        diagonal = tuple(
            evaluate(_to_scalar, p.group(), (), None, diag_line, p.start()).constant_value()
            for p in re.finditer(r"\S+", deformation_rows["D"]))
        if len(diagonal) != len(ideal):
            raise fail(("deformation", "D"), "D must list one rational per ideal index")
        deformation = DeformationBlock(ideal, outside, diagonal)

    def square_cells(word, what):
        for (i, j), value in cells[word].items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise fail((word, i, j), f"{what} indices ({i}, {j}) out of range")
            yield (i, j), value, line_of[(word, i, j)]

    # -- certificate and inert derivation metadata -------------------------
    certificate = derivation_meta = None
    if "certificate" in seen_sections:
        certificate = {key: evaluate(_to_scalar, value, params + ("t",), None, line)
                       for key, value, line in square_cells("g", "certificate")}
    if "derivation" in seen_sections:
        derivation_meta = {key: evaluate(_to_scalar, value, (), None, line).constant_value()
                           for key, value, line in square_cells("d", "derivation")}

    # -- errata --------------------------------------------------------------
    errata = []
    for number, group in enumerate(errata_groups, start=1):
        target = group["entry"]
        parts = target.split()
        if not (len(parts) == 3 and parts[0] in ("g", "bracket")
                and all(_is_digits(p) and 1 <= int(p) <= dim for p in parts[1:])):
            raise fail(("errata", number, "entry"), f"bad errata target {target!r}")
        corrected = group.get("corrected")
        if corrected is not None:
            line = line_of[("errata", number, "corrected")]
            if parts[0] == "bracket":
                evaluate(_to_column, corrected, params, "Y", line)
            else:
                evaluate(_to_scalar, corrected, params + ("t",), None, line)
        errata.append(Erratum(target, group.get("original"), corrected,
                              group.get("note", "")))

    return AlgebraFile(name=name, dim=dim, params=params,
                       basis_change=basis_change, brackets=brackets,
                       deformation=deformation, certificate=certificate,
                       certificate_parameter=certificate_parameter,
                       derivation_meta=derivation_meta, errata=tuple(errata))


def load_algebra(path: str | Path) -> AlgebraFile:
    """Load and validate one algebra file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path.name}: not UTF-8 text (byte {exc.start})") from exc
    return parse_algebra(text, source=path.name)


def serialize_algebra(alg: AlgebraFile) -> str:
    """Deterministic canonical text; a fixed point of parse-then-serialize."""
    lines: list[str] = []
    lines.append("[algebra]")
    lines.append(f"name = {alg.name}")
    lines.append(f"dim = {alg.dim}")
    lines.append("params =" + ("" if not alg.params else " " + " ".join(alg.params)))
    if alg.basis_change is not None:
        lines.append("")
        lines.append("[basis-change]")
        for index in sorted(alg.basis_change):
            row = alg.basis_change[index]
            column = tuple(Scalar.from_rational(x) for x in row)
            lines.append(f"Y{index} = {render_column(column, 'X')}")
    if alg.brackets is not None:
        lines.append("")
        lines.append("[brackets]")
        for (i, j) in sorted(alg.brackets):
            lines.append(f"bracket {i} {j} = {render_column(alg.brackets[(i, j)], 'Y')}")
    if alg.deformation is not None:
        lines.append("")
        lines.append("[deformation]")
        lines.append("ideal = " + " ".join(str(k) for k in alg.deformation.ideal))
        lines.append(f"outside = {alg.deformation.outside}")
        lines.append("D = " + " ".join(str(x) for x in alg.deformation.diagonal))
    if alg.certificate is not None:
        lines.append("")
        lines.append("[certificate]")
        if alg.certificate_parameter != "t":
            lines.append(f"parameter = {alg.certificate_parameter}")
        for (i, j) in sorted(alg.certificate):
            lines.append(f"g {i} {j} = {alg.certificate[(i, j)]}")
    if alg.derivation_meta is not None:
        lines.append("")
        lines.append("[derivation]")
        for (i, j) in sorted(alg.derivation_meta):
            lines.append(f"d {i} {j} = {alg.derivation_meta[(i, j)]}")
    if alg.errata:
        lines.append("")
        lines.append("[errata]")
        for erratum in alg.errata:
            lines.append(f"entry = {erratum.target}")
            if erratum.original is not None:
                lines.append(f"original = {erratum.original}")
            if erratum.corrected is not None:
                lines.append(f"corrected = {erratum.corrected}")
            if erratum.note:
                lines.append(f"note = {erratum.note}")
    return "\n".join(lines) + "\n"


# -- elaboration into core objects -------------------------------------------


def apply_errata(alg: AlgebraFile) -> AlgebraFile:
    """Return the corrected variant, with value-changing errata applied."""
    brackets = dict(alg.brackets) if alg.brackets is not None else None
    certificate = dict(alg.certificate) if alg.certificate is not None else None
    for erratum in alg.errata:
        if erratum.corrected is None:
            continue
        parts = erratum.target.split()
        kind, i, j = parts[0], int(parts[1]), int(parts[2])
        if kind == "bracket":
            if brackets is None:
                raise ValidationError(f"erratum for {erratum.target!r} but no brackets")
            brackets[(i, j)] = parse_column(erratum.corrected, alg.dim, "Y", alg.params)
        else:
            if certificate is None:
                raise ValidationError(f"erratum for {erratum.target!r} but no certificate")
            certificate[(i, j)] = parse_scalar(erratum.corrected, alg.params + ("t",))
    return replace(alg, brackets=brackets, certificate=certificate)


def structure_constants(alg: AlgebraFile, corrected: bool = False) -> StructureConstants:
    """The bracket defined by the file (verbatim or corrected variant)."""
    source = apply_errata(alg) if corrected else alg
    if source.brackets is None:
        raise ValidationError(f"{alg.name} has no bracket block")
    return StructureConstants(source.dim, dict(source.brackets),
                              frozenset(source.params), source.name)


def certificate_matrix(alg: AlgebraFile, corrected: bool = False) -> ScalarMatrix:
    """The dense certificate matrix g_t defined by the file."""
    source = apply_errata(alg) if corrected else alg
    if source.certificate is None:
        raise ValidationError(f"{alg.name} has no certificate block")
    rows = [[ZERO] * source.dim for _ in range(source.dim)]
    for (i, j), value in source.certificate.items():
        rows[i - 1][j - 1] = value
    return ScalarMatrix(tuple(tuple(row) for row in rows))


def load_corpus(directory: str | Path | None = None) -> dict[str, AlgebraFile]:
    """Load every algebra file of a catalog directory, keyed by name."""
    directory = Path(directory) if directory is not None else data_dir()
    if not directory.is_dir():
        raise ValidationError(f"catalog directory {directory} does not exist")
    corpus, token = {}, _parsed.set({})
    try:
        for path in sorted(directory.iterdir()):
            if path.name.startswith(".") or not path.is_file():
                continue
            alg = load_algebra(path)
            if alg.name != path.name:
                raise ValidationError(
                    f"{path.name}: header name {alg.name!r} does not match the file name")
            corpus[alg.name] = alg
    finally:
        _parsed.reset(token)
    return corpus
