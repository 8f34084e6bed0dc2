"""File format: expression grammar, loading, serialization, round-trips."""

from __future__ import annotations

import hashlib
import random
import re
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filicert as fc
from filicert import ParseError, Scalar, ValidationError
from filicert.dataio import (MAX_DIGITS, MAX_NESTING, VERIFIED_NAMES, apply_errata,
                             data_dir, load_algebra, load_corpus, parse_algebra,
                             parse_column, parse_scalar,
                             render_column, serialize_algebra)
from filicert.scalar import ONE

from helpers import (random_algebra_file, reference_parse_column,
                     reference_parse_scalar)


# -- expression grammar --------------------------------------------------------

def test_parse_certificate_polynomial():
    value = parse_scalar("-(8/5)*t*(t^4-1)", ("t", "alpha"))
    expected = Scalar.term(Fraction(-8, 5), 5) + Scalar.term(Fraction(8, 5), 1)
    assert value == expected


def test_parse_zero():
    assert parse_scalar("0", ("t", "alpha")).is_zero()


def test_parse_dangling_exponent():
    with pytest.raises(ParseError) as info:
        parse_scalar("t^", ("t",))
    assert info.value.expected


def test_parse_negative_exponent_on_t():
    assert parse_scalar("t^-1", ("t",)) == Scalar.t_power(-1)


def test_parse_negative_exponent_elsewhere_rejected():
    with pytest.raises(ValidationError):
        parse_scalar("alpha^-1", ("t", "alpha"))
    with pytest.raises(ValidationError):
        parse_scalar("(t^2)^-1", ("t",))


def test_parse_rational_literals():
    assert parse_scalar("7/20160", ()) == Scalar.from_rational(Fraction(7, 20160))
    with pytest.raises(ParseError):
        parse_scalar("7/", ())


def test_parse_error_positions():
    """Outside a file a syntax error names its column alone."""
    with pytest.raises(ParseError) as info:
        parse_scalar("t + $", ("t",))
    assert info.value.column == 5
    assert str(info.value) == "unexpected character '$' at column 5"
    with pytest.raises(ParseError) as info:
        parse_scalar("t + 2/", ("t",))
    assert str(info.value) == "missing denominator at column 7 (expected digit)"


def test_parentheses_nest_at_most_max_nesting_deep():
    """MAX_NESTING levels parse; one more is a ParseError at the first '('
    too many, raised before the parser recurses into it, so 400 levels end
    the same way instead of in a RecursionError."""
    deepest = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_scalar(f"2*{deepest}", ("t",)) == 2 * fc.Scalar.t_power(1)
    assert parse_column(f"{deepest}*Y2", 8, "Y", ("t",))[1] == fc.Scalar.t_power(1)
    for depth in (MAX_NESTING + 1, 400):
        text = "1 + " + "(" * depth + "t" + ")" * depth
        with pytest.raises(ParseError) as info:
            parse_scalar(text, ("t",))
        assert info.value.column == 5 + MAX_NESTING
        assert str(info.value) == \
            f"parentheses nested more than {MAX_NESTING} deep at column {5 + MAX_NESTING}"


def test_undeclared_symbol_rejected():
    with pytest.raises(ValidationError):
        parse_scalar("alpha*t", ("t",))


def test_parse_column_with_explicit_coefficients():
    column = parse_column("-1*Y5 + -1*Y8", 8, "Y", ())
    assert column[4] == -ONE
    assert column[7] == -ONE
    assert sum(1 for s in column if not s.is_zero()) == 2


def test_parse_column_rejects_nonlinear():
    with pytest.raises(ValidationError):
        parse_column("Y1*Y2", 8, "Y", ())
    with pytest.raises(ValidationError):
        parse_column("Y1^2", 8, "Y", ())


def test_parse_column_rejects_scalar_part():
    with pytest.raises(ValidationError):
        parse_column("Y1 + 2", 8, "Y", ())


def test_render_column_round_trips():
    column = parse_column("(-alpha - 2)*Y5 - Y6", 8, "Y", ("alpha",))
    text = render_column(column, "Y")
    assert parse_column(text, 8, "Y", ("alpha",)) == column


# -- the evaluating parser against the AST parser ----------------------------------

# Numbers (zero and missing denominators among them, non-ASCII decimal digits,
# a run one digit too long), names (declared or not, basis symbols in and out
# of range, non-ASCII letters, words that start with a non-letter) and the
# bare-t forms that a negative exponent accepts.
ATOMS = ["0", "1", "7", "12", "3/4", "4/2", "0/5", "1/0", "٣", "٣/٤", "9" * (MAX_DIGITS + 1),
         "t", "alpha", "Y1", "Y3", "Y8", "Y0", "Y9", "Y٣", "X2", "q", "λ", "é2", "a_b",
         "²", "½", "_x", "(t)", "((t))", "(t+0)", "(1*t)", "(1+t)^33", "(2+alpha)^40",
         "(1+t)^33*(1-t)^33", "(t)^-2", "((t))^-1"]
EXPONENTS = ["0", "1", "2", "3", "5", "65", "4097", "2/2", "1/2"]
MUTATIONS = ["$", "/0", "^", "(", ")", "7/", "²", "\t", "\u3000"]

atoms_st = st.one_of(st.sampled_from(ATOMS), st.integers(0, 99).map(str))


def _compound(inner):
    return st.one_of(
        inner.map(lambda e: f"({e})"),
        st.tuples(inner, st.sampled_from(["^", "^-", "^ -"]),
                  st.sampled_from(EXPONENTS)).map("".join),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " - ", " * "]),
                  inner).map("".join))


# The AST oracle has no nesting bound; max_leaves=10 composes _compound at
# most four deep, so the texts stay far below MAX_NESTING (asserted below).
expressions_st = st.recursive(atoms_st, _compound, max_leaves=10)
BASIS = ["Y1", "Y2", "Y5", "Y8", "Y0", "Y9", "Y٣", "(Y3)", "X2"]
# linear combinations, whose coefficients are expressions
combinations_st = st.lists(
    st.tuples(st.sampled_from([" + ", " - ", "-"]), expressions_st,
              st.sampled_from(["*", " * "]), st.sampled_from(BASIS)).map("".join),
    min_size=1, max_size=4).map(lambda terms: "".join(terms).removeprefix(" + "))


def mutated(texts):
    """A text, and in half the draws one character position of it replaced
    by, or preceded by, a piece that is often a syntax error."""
    @st.composite
    def draw_text(draw):
        text = draw(texts)
        if draw(st.booleans()):
            position = draw(st.integers(0, len(text)))
            piece = draw(st.sampled_from(MUTATIONS))
            text = text[:position] + piece + text[position + draw(st.integers(0, 1)):]
        return text
    return draw_text()


def canonical(scalars) -> bool:
    """True iff every coefficient is an int when it is integral and a
    Fraction otherwise."""
    return all(type(coeff) is (int if coeff.denominator == 1 else Fraction)
               for scalar in scalars for _, coeff in scalar.iter_terms())


def outcome(parse, *args):
    """The value, or the exception's type and message."""
    try:
        return parse(*args)
    except Exception as exc:  # every exception must be the reference's
        return type(exc).__name__, str(exc)


PARAMS = [(), ("t",), ("alpha",), ("t", "alpha")]


@example("q + )", ("t",))               # a held semantic error loses to a syntax error
@example("(q*t)^2 - (", ("t",))
@example("((t))^-2", ("t",))            # parentheses keep t bare
@example("(t)^-1 + (t+0)^-1", ("t",))
@example("1 + 3/0", ())                 # a fraction's column is where it starts
@example("12/ + 1", ())
@example("q^-1", ())                    # the exponent's sign is checked first
@example("(t)^-1", ("t",))              # a parenthesized symbol under a power
@example("(1*t)^-1", ("t",))
@example("-t^2", ("t",))                # a symbol that a power follows
@example("-(2/3)^2", ())
@example("(1+t)^65", ("t",))            # the power bound
@example("t^-1*alpha", ("t", "alpha"))  # monomial factors
@example("3/", ())                      # the tokenizer's kinds
@example("1/0", ())
@settings(max_examples=250)
@given(mutated(expressions_st), st.sampled_from(PARAMS))
def test_scalar_parser_agrees_with_the_ast_parser(text, params):
    assert text.count("(") < MAX_NESTING
    value = outcome(parse_scalar, text, params)
    assert value == outcome(reference_parse_scalar, text, params)
    assert not isinstance(value, Scalar) or canonical([value])


@example("Y1 + q + )", ("t",))
@example("(Y1)^-1", ())
@example("2*Y1*Y2", ())
@example("(1+t)^64*(1+t)^64*Y2", ("t",))
@example("Y1*0*Y2", ())                 # basis symbols stay named where they cancel
@example("0*Y1", ())
@example("2*Y1*alpha", ("alpha",))      # monomial factors
@settings(max_examples=250)
@given(mutated(st.one_of(combinations_st, expressions_st)), st.sampled_from(PARAMS))
def test_column_parser_agrees_with_the_ast_parser(text, params):
    assert text.count("(") < MAX_NESTING
    value = outcome(parse_column, text, 8, "Y", params)
    assert value == outcome(reference_parse_column, text, 8, "Y", params)
    assert isinstance(value[0], str) or canonical(value)


def test_character_classes_are_those_of_the_str_methods():
    """The tokenizer's regex classes match exactly where str.isspace,
    str.isdecimal and str.isalnum (or "_") are true, over all of Unicode,
    and no space is a word character."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]
    assert re.findall(r"\d", everything) == [c for c in everything if c.isdecimal()]
    words = re.findall(r"\w", everything)
    assert words == [c for c in everything if c.isalnum() or c == "_"]
    assert not any(c.isspace() for c in words)


def catalog_expressions():
    """Every bracket column, certificate cell and corrected erratum of the
    bundled catalog, read from the raw text: (file, kind, text, params)."""
    for path in sorted(data_dir().iterdir()):
        section, params, kind = None, (), None
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                section = line[1:-1]
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            if section == "algebra" and key == "params":
                params = tuple(value.split())
            elif section == "brackets":
                yield path.name, "column", value, params
            elif section == "certificate" and key.startswith("g "):
                yield path.name, "scalar", value, params + ("t",)
            elif section == "errata" and key == "entry":
                kind = "column" if value.startswith("bracket") else "scalar"
            elif section == "errata" and key == "corrected":
                yield path.name, kind, value, params + (("t",) if kind == "scalar" else ())


def test_catalog_expressions_expand_like_sympy(corpus):
    """sympy reads each catalog expression, with ^ as **, and expands it to
    the polynomial that parse_scalar or parse_column returns."""
    sympy = pytest.importorskip("sympy")
    t, alpha = sympy.symbols("t alpha")
    basis = sympy.symbols("Y1:9")
    names = {"t": t, "alpha": alpha, **{str(y): y for y in basis}}

    def as_sympy(scalar):
        return sum((sympy.Rational(c.numerator, c.denominator) * t ** e_t * alpha ** e_alpha
                    for (e_t, e_alpha), c in scalar.iter_terms()), sympy.Integer(0))

    counts = {"column": 0, "scalar": 0}
    for name, kind, text, params in catalog_expressions():
        expected = sympy.expand(sympy.sympify(text.replace("^", "**"), locals=names))
        if kind == "column":
            value = sum(as_sympy(c) * y for c, y in zip(parse_column(text, 8, "Y", params), basis))
        else:
            value = as_sympy(parse_scalar(text, params))
        assert sympy.expand(value - expected) == 0, (name, text)
        counts[kind] += 1
    algebras = corpus.values()
    assert counts == {
        "column": sum(len(alg.brackets or ()) for alg in algebras),
        "scalar": sum(len(alg.certificate or ()) for alg in algebras)
        + sum(1 for alg in algebras for e in alg.errata if e.corrected is not None)}


@pytest.mark.parametrize("corrected", [False, True])
def test_parsed_coefficients_are_canonical(corrected):
    """Parsing builds each Scalar once, so an integral coefficient is an int
    and any other a Fraction: in the bundled catalog, verbatim or corrected,
    in its serialized round trip, and in a product such as 1/2*2."""
    assert canonical([parse_scalar("1/2*2", ())])
    for name, alg in load_corpus().items():
        for variant in (alg, parse_algebra(serialize_algebra(alg), source=name)):
            if corrected:
                variant = apply_errata(variant)
            scalars = [*(variant.certificate or {}).values()]
            for column in (variant.brackets or {}).values():
                scalars += column
            assert canonical(scalars), name


def test_minus_signs_go_into_literals_and_symbols(monkeypatch):
    """The parser keeps int numerators over a common denominator, and a
    product's unary minus signs negate the numerators of the finished
    product, through parentheses; a Fraction is built once per non-integral
    coefficient, in lowest terms, when the line's value is read off, so
    -p/q and -(p/q) build one Fraction and no Fraction arithmetic: parsing
    the bundled catalog negates no Fraction.  A power keeps its sign
    outside."""
    built, ops = [], []
    monkeypatch.setattr(fc.dataio, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    for name in ("__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, lambda *args, name=name, method=getattr(
            Fraction, name): ops.append(name) or method(*args))
    for path in sorted(data_dir().iterdir()):
        parse_algebra(path.read_text(encoding="utf-8"), source=path.name)
    assert "__neg__" not in ops
    built.clear(), ops.clear()
    assert parse_scalar("-3/5*t - (2/7)*t^2 - (-4/9)", ("t",)) == Scalar(
        {(1, 0): Fraction(-3, 5), (2, 0): Fraction(-2, 7), (0, 0): Fraction(4, 9)})
    assert (built, ops) == ([(-3, 5), (-2, 7), (4, 9)], [])
    assert parse_scalar("-(2/3)^2 - -t^-1 - (-t)^3", ("t",)) == \
        Scalar({(0, 0): Fraction(-4, 9), (-1, 0): 1, (3, 0): 1})
    nested = "t"
    for _ in range(MAX_NESTING):
        nested = f"-({nested})^1"
    start = time.perf_counter()  # the work stays linear in the nesting depth
    assert parse_scalar(nested, ("t",)) == Scalar.t_power(1)
    assert time.perf_counter() - start < 1


def test_a_power_raises_its_base_in_lowest_terms():
    """The power bound is checked on lowest-terms bits, so the numbers a power
    raises are in lowest terms too, wherever a common factor comes from: a
    literal, a sum or a product.  Raising the unreduced 2^2048/2^2048 or
    N^2048/N^2048 again would pass the bound and build numbers of millions
    of bits."""
    n = "7" * MAX_DIGITS
    start = time.perf_counter()
    for text in (f"({n}/{n})^2048", f"(({n}/{n})^2048)^2", "((2/2)^2048)^2048",
                 "((1/2 + 1/2)^2048)^2048", "((2*(1/2))^2048)^2048"):
        assert parse_scalar(text, ()) == ONE, text
    assert parse_scalar("((2*t + 2)*(1/2))^2", ("t",)) == parse_scalar("t^2 + 2*t + 1", ("t",))
    assert time.perf_counter() - start < 1


def test_each_load_parses_every_file_again(monkeypatch):
    """load_corpus parses each bundled file on every call: nothing is cached
    between calls.  Counted by wrapping dataio.parse_algebra, as the
    benchmark's tracer does."""
    parsed = []

    def counted(text, source="<string>"):
        parsed.append(source)
        return parse_algebra(text, source)

    monkeypatch.setattr(fc.dataio, "parse_algebra", counted)
    names = sorted(load_corpus())
    assert sorted(load_corpus()) == names and len(names) == 20
    assert sorted(parsed) == sorted(names * 2)



def table_text(name: str, body: str, dim: int = 3, params: str = "") -> str:
    return f"[algebra]\nname = {name}\ndim = {dim}\nparams = {params}\n\n{body}\n"


# Pairs of files that hold one text where it means different things (params,
# the basis prefix, dim, the certificate's t) or fails at different lines.
SHARED_TEXT_PAIRS = {
    "params": (("[brackets]\nbracket 1 2 = alpha*Y3", 3, "alpha"),
               ("[brackets]\nbracket 1 2 = alpha*Y3", 3, "")),
    "t in g and bracket": (("[certificate]\ng 1 1 = t", 3, ""),
                           ("[brackets]\nbracket 1 2 = t", 3, "")),
    "prefix": (("[basis-change]\nY1 = X2", 3, ""),
               ("[brackets]\nbracket 1 2 = X2", 3, "")),
    "prefix, other way": (("[brackets]\nbracket 1 2 = Y2", 3, ""),
                          ("[basis-change]\nY1 = Y2", 3, "")),
    "dim": (("[brackets]\nbracket 1 3 = -1/2*Y2", 3, ""),
            ("[brackets]\nbracket 1 3 = -1/2*Y2", 4, "")),
    "dim out of range": (("[brackets]\nbracket 1 2 = Y3", 3, ""),
                         ("[brackets]\nbracket 1 2 = Y3", 2, "")),
    "line": (("[certificate]\ng 1 1 = (1+t)^65", 3, ""),
             ("\n\n[certificate]\ng 2 2 = (1+t)^65", 3, "")),
}


def load_outcome(load):
    try:
        return load()
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("case", sorted(SHARED_TEXT_PAIRS))
@pytest.mark.parametrize("names", [("a", "b"), ("b", "a")])
def test_a_text_in_two_files_gets_each_file_its_own_verdict(tmp_path, case, names):
    """load_corpus keeps each parsed text for the rest of the call, under
    everything its value depends on: whatever the file order, the catalog
    loads (or fails, with the same message and line) exactly as its files
    parsed one by one with no sharing."""
    texts = {name: table_text(name, body, dim, params)
             for name, (body, dim, params) in zip(names, SHARED_TEXT_PAIRS[case])}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    def one_by_one():
        return {name: parse_algebra(texts[name], source=name) for name in sorted(texts)}

    assert load_outcome(lambda: load_corpus(tmp_path)) == load_outcome(one_by_one)
    assert fc.dataio._parsed.get() is None



def test_a_kept_parse_is_keyed_by_its_basis_prefix():
    """Within one load the same text under another basis prefix is parsed
    again: X2 is a basis symbol for prefix X and undeclared for prefix Y."""
    token = fc.dataio._parsed.set({})
    try:
        assert parse_column("X2", 3, "X", ()) == (Scalar(), ONE, Scalar())
        with pytest.raises(ValidationError, match="undeclared symbol 'X2'"):
            parse_column("X2", 3, "Y", ())
    finally:
        fc.dataio._parsed.reset(token)

def parsed_objects(corpus) -> dict[int, object]:
    """id -> object of every column, nonzero Scalar and basis-change row."""
    objects = []
    for alg in corpus.values():
        for column in (alg.brackets or {}).values():
            objects += [column, *(s for s in column if not s.is_zero())]
        objects += [s for s in (alg.certificate or {}).values() if not s.is_zero()]
        objects += list((alg.basis_change or {}).values())
    return {id(obj): obj for obj in objects}


def test_parses_are_shared_within_one_load_and_not_across_loads(tmp_path):
    """Two files with the same bracket text share its column within one load;
    a second load shares no parsed object with the first."""
    for name in ("a", "b"):
        (tmp_path / name).write_text(
            table_text(name, "[basis-change]\nY1 = X2\n\n[brackets]\nbracket 1 2 = -1/2*Y3"),
            encoding="utf-8")
    first = load_corpus(tmp_path)
    assert first["a"].brackets[(1, 2)] is first["b"].brackets[(1, 2)]
    assert first["a"].basis_change[1] is first["b"].basis_change[1]
    second = load_corpus(tmp_path)
    assert first == second
    assert not set(parsed_objects(first)) & set(parsed_objects(second))
    bundled = (load_corpus(), load_corpus())
    assert not set(parsed_objects(bundled[0])) & set(parsed_objects(bundled[1]))


# -- loading the catalog -----------------------------------------------------------

def test_load_catalog_entry_counts(corpus):
    alg = corpus["mu11"]
    assert alg.dim == 8
    assert len(alg.brackets) == 10
    assert alg.deformation.diagonal == tuple(Fraction(k) for k in range(1, 8))
    off_diagonal = [key for key in alg.certificate if key[0] != key[1]]
    assert len(off_diagonal) == 12


def test_catalog_has_expected_members(corpus):
    verified = sorted(name for name, alg in corpus.items() if alg.certificate)
    inert = sorted(name for name, alg in corpus.items() if alg.brackets is None)
    assert verified == sorted(VERIFIED_NAMES)
    assert len(corpus) == 20
    assert all(name.endswith("-meta") for name in inert)
    assert len(inert) == 10


def test_dense_certificate_contains_a_pole(corpus):
    alg = corpus["mu08"]
    assert alg.certificate[(1, 1)] == Scalar.t_power(-1)
    assert alg.certificate_parameter == "1/t"


def test_family_files_declare_alpha(corpus):
    for name in ("mu06", "mu09", "mu10", "mu13"):
        assert corpus[name].params == ("alpha",)


def test_out_of_range_bracket_index_rejected():
    text = """
[algebra]
name = bad
dim = 8
params =

[brackets]
bracket 1 9 = Y2
"""
    with pytest.raises(ValidationError):
        parse_algebra(text)


def test_unknown_section_rejected():
    with pytest.raises(ValidationError):
        parse_algebra("[algebra]\nname = x\ndim = 2\n\n[mystery]\n")


def test_undeclared_parameter_in_bracket_rejected():
    text = """
[algebra]
name = bad
dim = 3
params =

[brackets]
bracket 1 2 = alpha*Y3
"""
    with pytest.raises(ValidationError):
        parse_algebra(text)


@pytest.mark.parametrize("name, line, old, new, message", [
    ("mu11", 6, "dim = 8", "dim = 17", "dim must be an integer from 1 to 16"),
    ("mu11", 7, "params =", "params = beta", "params may only declare 'alpha'"),
    ("mu11", 7, "params =", "name = mu11", "duplicate header key 'name'"),
    ("mu11", 17, "Y8 = X2", "Y9 = X2", "basis index Y9 out of range"),
    ("mu11", 17, "Y8 = X2", "Y2 = X2", "duplicate row for Y2"),
    ("mu11", 32, "ideal = 2 3 4 5 6 7 8", "ideal = 2 3 x", "ideal must list basis indices"),
    ("mu11", 32, "ideal = 2 3 4 5 6 7 8", "ideal = 2 3 4 5 6 7 7",
     "ideal indices must be distinct and in range"),
    ("mu11", 33, "outside = 1", "outside = 9", "outside must be a basis index"),
    ("mu11", 33, "outside = 1", "outside = 2",
     "outside = 2 lies inside the ideal (2 3 4 5 6 7 8)"),
    ("mu11", 34, "D = 1 2 3 4 5 6 7", "D = 1 2 3", "D must list one rational per ideal index"),
    ("mu11", 35, "", "D = 1", "duplicate key 'D'"),
    ("mu08", 70, "entry = g 2 4", "entry = g 2 99", "bad errata target 'g 2 99'"),
    ("mu10", 59, "entry = g 5 2", "note = -", "'note' before any 'entry'"),
])
def test_header_and_errata_errors_name_their_line(name, line, old, new, message):
    """A one-line edit of a bundled file is rejected with its file, the
    edited line and the message.  A duplicate 'note' is on a later line than
    its edit (test_a_second_note_names_its_line), and an erratum whose block
    is missing needs more than one line taken out
    (test_an_erratum_for_a_block_the_file_lacks_is_a_load_error)."""
    lines = (data_dir() / name).read_text(encoding="utf-8").splitlines()
    assert lines[line - 1] == old
    lines[line - 1] = new
    with pytest.raises(ValidationError) as caught:
        parse_algebra("\n".join(lines), source=name)
    assert str(caught.value) == f"{name}:{line}: {message}"


def test_a_second_note_names_its_line():
    """mu10's erratum ends in a note on line 61; a note on line 60 makes it
    the second one."""
    lines = (data_dir() / "mu10").read_text(encoding="utf-8").splitlines()
    assert lines[59] == "original = p{5}" and lines[60].startswith("note = ")
    lines[59] = "note = -"
    with pytest.raises(ValidationError) as caught:
        parse_algebra("\n".join(lines), source="mu10")
    assert str(caught.value) == "mu10:61: duplicate 'note'"


@pytest.mark.parametrize("new, message", [
    ("g 01 +1 = t", "expected 2 integers after 'g'"),
    ("g 01 -0001 = t", "certificate indices (1, -1) out of range"),
    ("g 01 001 = t", "duplicate entry g 1 1"),
])
def test_the_indices_of_an_i_j_key_are_read_as_integers(new, message):
    """An index is at most one '-' and digits, read as an integer: leading
    zeros name the same cell, and errors name the indices as integers."""
    lines = (data_dir() / "mu11").read_text(encoding="utf-8").splitlines()
    assert lines[37] == "g 2 2 = t"
    lines[37] = new
    with pytest.raises(ValidationError) as caught:
        parse_algebra("\n".join(lines), source="mu11")
    assert str(caught.value) == f"mu11:38: {message}"


def test_name_must_match_file_name(tmp_path):
    path = tmp_path / "other"
    path.write_text("[algebra]\nname = x\ndim = 2\nparams =\n")
    with pytest.raises(ValidationError):
        load_corpus(tmp_path)


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_corpus(tmp_path / "absent")


# -- errata --------------------------------------------------------------------------

def test_correction_applies_only_on_request(corpus):
    alg = corpus["mu08"]
    verbatim = fc.certificate_matrix(alg)
    corrected = fc.certificate_matrix(fc.apply_errata(alg))
    assert verbatim.rows[1][3] == -corrected.rows[1][3]
    changed = [
        (i, j)
        for i in range(8) for j in range(8)
        if verbatim.rows[i][j] != corrected.rows[i][j]
    ]
    assert changed == [(1, 3)]


def test_note_only_erratum_changes_nothing(corpus):
    alg = corpus["mu10"]
    assert alg.errata and alg.errata[0].corrected is None
    assert apply_errata(alg).certificate == alg.certificate


def test_an_erratum_for_a_block_the_file_lacks_is_a_load_error(corpus):
    """mu08 without its [certificate] section: the erratum for 'g 2 4' is
    rejected at load, at its entry line, whatever the command.  apply_errata
    keeps the same guard for a file built through the API."""
    lines = (data_dir() / "mu08").read_text(encoding="utf-8").splitlines()
    del lines[lines.index("[certificate]"):lines.index("[errata]")]
    entry = lines.index("entry = g 2 4") + 1
    with pytest.raises(ValidationError) as caught:
        parse_algebra("\n".join(lines), source="mu08")
    assert str(caught.value) == f"mu08:{entry}: erratum for 'g 2 4' but no certificate"
    with pytest.raises(ValidationError, match="but no certificate"):
        apply_errata(replace(corpus["mu08"], certificate=None))


# -- serialization ----------------------------------------------------------------------

def test_shipped_files_round_trip_structurally(corpus):
    for name, alg in corpus.items():
        text = serialize_algebra(alg)
        assert parse_algebra(text, source=name) == alg, name


def test_shipped_files_serialize_byte_stably(corpus):
    for name, alg in corpus.items():
        once = serialize_algebra(alg)
        twice = serialize_algebra(parse_algebra(once, source=name))
        assert once == twice, name


def test_randomized_files_round_trip():
    rng = random.Random(2024)
    for _ in range(200):
        alg = random_algebra_file(rng)
        text = serialize_algebra(alg)
        parsed = parse_algebra(text, source=alg.name)
        assert parsed == alg
        assert serialize_algebra(parsed) == text


def test_absent_blocks_serialize_as_absent_sections():
    alg = fc.AlgebraFile(name="tiny", dim=2)
    text = serialize_algebra(alg)
    assert "[brackets]" not in text
    assert "[certificate]" not in text
    assert "[errata]" not in text
    assert parse_algebra(text) == alg


def test_family_round_trip_preserves_alpha(corpus):
    text = serialize_algebra(corpus["mu06"])
    assert "alpha" in text
    reparsed = parse_algebra(text, source="mu06")
    assert reparsed.params == ("alpha",)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    body = serialize_algebra(fc.AlgebraFile(name="tiny", dim=2))
    path = tmp_path / "tiny"
    path.write_text("# leading comment\n\n" + body.replace(
        "dim = 2", "dim = 2   # trailing comment"))
    assert load_algebra(path).dim == 2


# -- line mutations of the bundled files ---------------------------------------------

# Pieces that a line mutation inserts or substitutes: the characters the line
# pass splits on or tests for, signs and digits of the "i j" keys, and words.
LINE_PIECES = ["#", "=", " ", "\t", "[", "]", "-", "--", "0", "9", "99", "x", "g", "d",
               "Y", "X", "t", "alpha", "/", "^", "(", ")", "*", "²", "٣", "\u3000"]
LINE_MUTATIONS_PER_FILE = 60
# sha256 of the outcomes of the mutations below: any rewrite of the line pass
# or of the evaluator must give every mutated file the same value or error.
LINE_MUTATION_OUTCOMES = "19d155db4febc352fa82f097d88e0bf5c1adadb9c63fc4c4f480093ea34adc15"


def mutate_lines(rng: random.Random, lines: list[str]) -> list[str]:
    """`lines` with one line edited: a character deleted, inserted or
    replaced by a piece, or the line deleted, doubled or swapped with the next."""
    lines = list(lines)
    number = rng.randrange(len(lines))
    line = lines[number]
    position = rng.randint(0, len(line))
    kind = rng.randrange(6)
    if kind == 0:
        lines[number] = line[:position] + line[position + 1:]
    elif kind in (1, 2):
        lines[number] = line[:position] + rng.choice(LINE_PIECES) + line[position + kind - 1:]
    elif kind == 3:
        del lines[number]
    elif kind == 4:
        lines.insert(number, line)
    else:
        lines[number:number + 2] = lines[number:number + 2][::-1]
    return lines


def parse_outcome(text: str, source: str) -> tuple:
    """The serialized file's sha256, or the error's type, message, line and
    column; any other exception propagates."""
    try:
        alg = parse_algebra(text, source=source)
    except (ParseError, ValidationError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return ("ok", hashlib.sha256(serialize_algebra(alg).encode()).hexdigest())


def test_line_mutations_of_the_bundled_files_keep_their_outcomes():
    """A fixed-seed set of one-line edits of every bundled file parses, or
    fails with the message, line and column, exactly as pinned."""
    digest = hashlib.sha256()
    kinds = set()
    for path in sorted(data_dir().iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines()
        rng = random.Random(f"line-mutations:{path.name}")
        for _ in range(LINE_MUTATIONS_PER_FILE):
            outcome = parse_outcome("\n".join(mutate_lines(rng, lines)), path.name)
            kinds.add(outcome[0])
            digest.update(repr(outcome).encode() + b"\n")
    assert kinds == {"ok", "ParseError", "ValidationError"}
    assert digest.hexdigest() == LINE_MUTATION_OUTCOMES


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_a_file_with_other_line_ends_loads_the_same(tmp_path, newline):
    """load_algebra reads a file's bytes as UTF-8 and splits its lines on any
    line end, so CRLF or CR files load like the LF file, and an error names
    the same line."""
    text = (data_dir() / "mu08").read_text(encoding="utf-8")
    path = tmp_path / "mu08"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert load_algebra(path) == load_algebra(data_dir() / "mu08")
    path.write_bytes(text.replace("\n", newline).replace("g 2 4 =", "g 2 4 " + newline, 1)
                     .encode("utf-8"))
    line = next(n for n, raw in enumerate(text.splitlines(), 1) if raw.startswith("g 2 4"))
    with pytest.raises(ValidationError) as caught:
        load_algebra(path)
    assert str(caught.value) == f"mu08:{line}: expected 'key = value'"


def test_data_directory_is_bundled():
    assert (data_dir() / "mu11").is_file()
