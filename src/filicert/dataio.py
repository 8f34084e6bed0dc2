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

Loading elaborates all expressions to canonical Scalars and validates every
structural invariant; errata are stored but applied only when the corrected
variant is requested explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ParseError, ValidationError
from .lie import Column, StructureConstants
from .linalg import ScalarMatrix
from .scalar import ALPHA, T, ZERO, Scalar

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


def _is_digits(text: str) -> bool:
    """True iff text is a run of at most MAX_DIGITS decimal digits."""
    return text.isdecimal() and len(text) <= MAX_DIGITS


def data_dir() -> Path:
    """Directory holding the bundled catalog."""
    return Path(__file__).parent / "data"


# -- expression grammar ------------------------------------------------------


class Expression:
    """Abstract syntax tree over rationals, symbols, and + - * ^."""

    __slots__ = ()

    def to_scalar(self, params: Iterable[str] = ("t", "alpha"), line: int = 0) -> Scalar:
        """Elaborate a pure-scalar expression to its canonical Scalar."""
        scalar, vector = _evaluate(self, frozenset(params), None, 0, line)
        if vector:
            raise ValidationError("expression contains basis symbols")
        return scalar


@dataclass(frozen=True)
class Number(Expression):
    value: Fraction


@dataclass(frozen=True)
class SymbolRef(Expression):
    name: str


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Power(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | one of "+-*^()" | "end"
    text: str
    column: int
    value: Fraction | None = None


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        start = pos
        if ch.isdecimal():
            while pos < length and text[pos].isdecimal():
                pos += 1
            numerator, denominator = text[start:pos], "1"
            if pos < length and text[pos] == "/":
                den_start = pos + 1
                pos += 1
                while pos < length and text[pos].isdecimal():
                    pos += 1
                if pos == den_start:
                    raise ParseError("missing denominator", line, pos + 1,
                                     ("digit",))
                denominator = text[den_start:pos]
            if not (_is_digits(numerator) and _is_digits(denominator)):
                raise ParseError(f"number with more than {MAX_DIGITS} digits", line, start + 1)
            if int(denominator) == 0:
                raise ParseError("zero denominator", line, start + 1)
            value = Fraction(int(numerator), int(denominator))
            tokens.append(_Token("number", text[start:pos], start + 1, value))
        elif ch.isalpha():
            while pos < length and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(_Token("name", text[start:pos], start + 1))
        elif ch in "+-*^()":
            tokens.append(_Token(ch, ch, start + 1))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, pos + 1)
    tokens.append(_Token("end", "", length + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"unexpected token {token.text or 'end of input'!r}",
                             self.line, token.column, (kind,))
        return self.take()

    def parse(self) -> Expression:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing token {tail.text!r}",
                             self.line, tail.column, ("end of input",))
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = BinaryOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        negations = 0
        while self.peek().kind == "-":
            self.take()
            negations += 1
        node = self.factor()
        while self.peek().kind == "*":
            self.take()
            node = BinaryOp("*", node, self.factor())
        for _ in range(negations):
            node = Negate(node)
        return node

    def factor(self) -> Expression:
        node = self.base()
        if self.peek().kind == "^":
            self.take()
            sign = 1
            if self.peek().kind == "-":
                self.take()
                sign = -1
            token = self.expect("number")
            if token.value is None or token.value.denominator != 1:
                raise ParseError("exponent must be an integer literal",
                                 self.line, token.column, ("integer",))
            node = Power(node, sign * int(token.value))
        return node

    def base(self) -> Expression:
        token = self.peek()
        if token.kind == "number":
            self.take()
            return Number(token.value)
        if token.kind == "name":
            self.take()
            return SymbolRef(token.text)
        if token.kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {token.text or 'end of input'!r}",
                         self.line, token.column,
                         ("number", "symbol", "'('"))


def parse_expression(text: str, line: int = 0) -> Expression:
    """Parse an expression into its AST (no symbol resolution yet)."""
    return _Parser(_tokenize(text, line), line).parse()


def _size(scalar: Scalar) -> tuple[int, int]:
    """The degree in t or alpha, and the bit length of the coefficients plus
    that of the term count: what the resource bounds are checked on."""
    degree = bits = 0
    for (e_t, e_alpha), coeff in scalar.iter_terms():
        degree = max(degree, abs(e_t), e_alpha)
        bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
    return degree, bits + scalar.term_count().bit_length()


def _check_size(kind: str, degree: int, bits: int, line: int) -> None:
    """Reject a power or a product before it is computed if the bound on its
    degree or coefficient bits exceeds the limits: the base's `_size` times
    the exponent, or the sum of the factors' sizes."""
    if degree > MAX_DEGREE or bits > MAX_BITS:
        where = f" at line {line}" if line else ""
        raise ValidationError(f"{kind}{where} too large: degree {degree} (at most "
                              f"{MAX_DEGREE}), {bits}-bit coefficients (at most {MAX_BITS})")


def _product(a: Scalar, b: Scalar, line: int) -> Scalar:
    """a * b, after `_check_size` when both factors have two or more terms; a
    product with a monomial factor grows at most by that monomial, so only
    linearly in the length of the line."""
    if a.term_count() > 1 and b.term_count() > 1:
        (degree_a, bits_a), (degree_b, bits_b) = _size(a), _size(b)
        _check_size("product", degree_a + degree_b, bits_a + bits_b, line)
    return a * b


def _evaluate(node: Expression, params: frozenset[str],
              basis_prefix: str | None, dim: int, line: int = 0):
    if isinstance(node, Number):
        return Scalar.from_rational(node.value), {}
    if isinstance(node, SymbolRef):
        name = node.name
        if name == "t" and "t" in params:
            return T, {}
        if name == "alpha" and "alpha" in params:
            return ALPHA, {}
        if basis_prefix and name.startswith(basis_prefix) and name[len(basis_prefix):].isdecimal():
            digits = name[len(basis_prefix):]
            if not (_is_digits(digits) and 1 <= int(digits) <= dim):
                raise ValidationError(f"basis index {name} out of range 1..{dim}")
            return ZERO, {int(digits): Scalar.from_rational(1)}
        raise ValidationError(f"undeclared symbol {name!r}")
    if isinstance(node, Negate):
        scalar, vector = _evaluate(node.operand, params, basis_prefix, dim, line)
        return -scalar, {k: -v for k, v in vector.items()}
    if isinstance(node, Power):
        if node.exponent < 0 and not (isinstance(node.base, SymbolRef)
                                      and node.base.name == "t"):
            raise ValidationError("negative exponents are allowed only on t")
        scalar, vector = _evaluate(node.base, params, basis_prefix, dim, line)
        if vector:
            if node.exponent != 1:
                raise ValidationError("basis symbols cannot be raised to a power")
            return scalar, vector
        degree, bits = _size(scalar)
        _check_size("power", abs(node.exponent) * degree, abs(node.exponent) * bits, line)
        return scalar ** node.exponent, {}
    if isinstance(node, BinaryOp):
        left_s, left_v = _evaluate(node.left, params, basis_prefix, dim, line)
        right_s, right_v = _evaluate(node.right, params, basis_prefix, dim, line)
        if node.op == "+":
            merged = dict(left_v)
            for k, v in right_v.items():
                merged[k] = merged.get(k, ZERO) + v
            return left_s + right_s, merged
        if node.op == "-":
            merged = dict(left_v)
            for k, v in right_v.items():
                merged[k] = merged.get(k, ZERO) - v
            return left_s - right_s, merged
        if node.op == "*":
            if left_v and right_v:
                raise ValidationError("product of basis symbols is not linear")
            if left_v:
                return (_product(left_s, right_s, line),
                        {k: _product(v, right_s, line) for k, v in left_v.items()})
            return (_product(left_s, right_s, line),
                    {k: _product(left_s, v, line) for k, v in right_v.items()})
    raise TypeError(f"unknown expression node {node!r}")


def parse_scalar(text: str, params: Iterable[str], line: int = 0) -> Scalar:
    """Parse and elaborate a scalar expression."""
    return parse_expression(text, line).to_scalar(params, line)


def parse_column(text: str, dim: int, prefix: str, params: Iterable[str],
                 line: int = 0) -> Column:
    """Parse a linear combination of basis symbols into a coordinate column."""
    node = parse_expression(text, line)
    scalar, vector = _evaluate(node, frozenset(params), prefix, dim, line)
    if not scalar.is_zero():
        raise ValidationError(
            f"value must be a combination of {prefix}-symbols, found scalar part {scalar}")
    out = [ZERO] * dim
    for index, coeff in vector.items():
        out[index - 1] = coeff
    return tuple(out)


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
            if value not in ("t", "1/t"):
                raise ValidationError(
                    f"{source}:{line_number}: parameter must be 't' or '1/t'")
            certificate_parameter = value
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

    def fail(key, message):
        line = line_of.get(key, 0)
        return ValidationError(f"{source}:{line}: {message}")

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
        raise ValidationError(f"{source}: params may only declare 'alpha'")

    # -- basis change ------------------------------------------------------
    basis_change = None
    if "basis-change" in seen_sections:
        basis_change = {}
        for index, value in basis_rows.items():
            if not 1 <= index <= dim:
                raise fail(("basis", index), f"basis index Y{index} out of range")
            column = parse_column(value, dim, "X", (),
                                  line_of[("basis", index)])
            basis_change[index] = tuple(entry.constant_value() for entry in column)

    # -- brackets ----------------------------------------------------------
    brackets = None
    if "brackets" in seen_sections:
        brackets = {}
        for (i, j), value in cells["bracket"].items():
            if not 1 <= i < j <= dim:
                raise fail(("bracket", i, j), f"bracket indices ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
            brackets[(i, j)] = parse_column(value, dim, "Y", params,
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
            parse_scalar(p, (), diag_line).constant_value()
            for p in deformation_rows["D"].split())
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
        certificate = {key: parse_scalar(value, params + ("t",), line)
                       for key, value, line in square_cells("g", "certificate")}
    if "derivation" in seen_sections:
        derivation_meta = {key: parse_scalar(value, (), line).constant_value()
                           for key, value, line in square_cells("d", "derivation")}

    # -- errata --------------------------------------------------------------
    errata = []
    for group in errata_groups:
        target = group["entry"]
        target_kind = _errata_target(target, dim, source)
        corrected = group.get("corrected")
        if corrected is not None:
            if target_kind == "bracket":
                parse_column(corrected, dim, "Y", params)
            else:
                parse_scalar(corrected, params + ("t",))
        errata.append(Erratum(target, group.get("original"), corrected,
                              group.get("note", "")))

    return AlgebraFile(name=name, dim=dim, params=params,
                       basis_change=basis_change, brackets=brackets,
                       deformation=deformation, certificate=certificate,
                       certificate_parameter=certificate_parameter,
                       derivation_meta=derivation_meta, errata=tuple(errata))


def _errata_target(target: str, dim: int, source: str) -> str:
    parts = target.split()
    if len(parts) == 3 and parts[0] in ("g", "bracket") \
            and _is_digits(parts[1]) and _is_digits(parts[2]):
        i, j = int(parts[1]), int(parts[2])
        if 1 <= i <= dim and 1 <= j <= dim:
            return parts[0]
    raise ValidationError(f"{source}: bad errata target {target!r}")


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
    corpus = {}
    for path in sorted(directory.iterdir()):
        if path.name.startswith(".") or not path.is_file():
            continue
        alg = load_algebra(path)
        if alg.name != path.name:
            raise ValidationError(
                f"{path.name}: header name {alg.name!r} does not match the file name")
        corpus[alg.name] = alg
    return corpus
