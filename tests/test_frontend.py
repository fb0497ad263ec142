"""Parser, static checker and lowering of the source language."""
from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import elastika
from elastika import frontend
from elastika.frontend import (FrontendError, LowerError, ParConflict,
                               SyntaxError, UndeclaredName, compile, parse)
from elastika.frontend import syntax as S
from elastika.bench import benchmark, benchmark_names
from elastika.buffering import apply, policy_pac
from elastika.ir import Kind, validate
from elastika.sim import SimConfig, parse_stimulus, run


def wrap(body: str, ports: str = "in a: 32; out z: 32",
         decls: str = "var x: 32;") -> str:
    return f"module t({ports}) {{ {decls} {body} }}"


# ---------------------------------------------------------------------------
# Parsing

def test_parse_elgcd_shape():
    src = benchmark("elgcd").source.read_text()
    mod = parse(src)
    assert mod.name == "elgcd"
    assert [p.name for p in mod.ports] == ["a", "b", "g"]
    assert [p.dir for p in mod.ports] == ["in", "in", "out"]
    assert mod.vars == {"x": 32, "y": 32}
    # The body is implicitly wrapped in the outermost repeat.
    assert isinstance(mod.body, S.LoopStmt)


def test_port_array_expands():
    mod = parse("module t(in c[0..2]: 8; out z: 8) { z ! c[0] + c[1] + c[2] }")
    assert [p.name for p in mod.ports] == ["c[0]", "c[1]", "c[2]", "z"]
    assert all(p.width == 8 for p in mod.ports)


def test_hex_literals_and_comments():
    mod = parse(wrap("x := a ; z ! x + 0x10  # trailing comment\n"))
    assert isinstance(mod.body, S.LoopStmt)


def test_explicit_loop_body_not_rewrapped():
    mod = parse(wrap("loop { x := a ; z ! x }"))
    assert isinstance(mod.body, S.LoopStmt)
    assert not isinstance(mod.body.body, S.LoopStmt)


def test_unexpected_character_is_positioned():
    with pytest.raises(SyntaxError) as exc:
        parse("module t() { @ }")
    assert exc.value.line == 1
    assert exc.value.col > 0


@pytest.mark.parametrize("ch", ["²", "٣", "é"])
def test_characters_outside_the_grammar_are_positioned(ch):
    # "²" escaped as ValueError, "٣" read as the number 3, "é" as a letter.
    for text, line, col in ((f"module t() {{ x{ch} }}", 1, 15),
                            (f"module t() {{\n  {ch}1 }}", 2, 3)):
        with pytest.raises(SyntaxError, match="unexpected character") as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (line, col)
    parse(wrap(f"x := a ; z ! x  # {ch} is fine in a comment\n"))


def test_tokens_follow_the_lexical_grammar():
    toks = S.tokenize("a<=b<<c||d..0x1F:=_e9 # c\n<>")
    assert [(t.type, t.value) for t in toks] == [
        ("ident", "a"), ("<=", "<="), ("ident", "b"), ("<<", "<<"),
        ("ident", "c"), ("||", "||"), ("ident", "d"), ("..", ".."),
        ("num", 31), (":=", ":="), ("ident", "_e9"), ("<", "<"), (">", ">"),
        ("eof", "")]
    assert (toks[-3].line, toks[-3].col) == (2, 1)
    with pytest.raises(SyntaxError, match="^1:5: malformed hex literal$"):
        S.tokenize("x + 0x;")


def test_literals_stop_below_two_to_the_widest_width():
    top = 2 ** 512 - 1
    for word in (str(top), "0" * 5000 + str(top), hex(top)):
        assert S.tokenize(word)[0].value == top
    for word in (str(top + 1), "9" * 5000, hex(top + 1)):
        with pytest.raises(SyntaxError,
                           match="^1:3: literal wider than 512 bits$"):
            S.tokenize("x " + word)


def test_end_of_file_after_a_comment_has_its_true_column():
    with pytest.raises(SyntaxError, match="^1:20: unexpected token ''$"):
        parse("module t() { # open")


def test_missing_else_rejected():
    with pytest.raises(SyntaxError):
        parse(wrap("if a > 1 { x := a } ; z ! x"))


# ---------------------------------------------------------------------------
# Operator precedence: bitwise binds looser than comparison

def test_mask_needs_parentheses():
    # x & 1 == 1 parses as x & (1 == 1): the conjunction then mixes a
    # 32-bit and a 1-bit operand, which the width checker rejects.
    parse(wrap("x := a ; while (x & 1) == 1 { x := x - 1 } ; z ! x"))
    with pytest.raises(SyntaxError):
        parse(wrap("x := a ; while x & 1 == 1 { x := x - 1 } ; z ! x"))


def test_arithmetic_binds_tighter_than_shift():
    mod = parse(wrap("x := a << 1 + 1 ; z ! x"))
    # Find the assignment under the implicit loop/seq.
    seq = mod.body.body
    assign = seq.parts[0]
    assert isinstance(assign.expr, S.BinOp) and assign.expr.op == "shl"
    assert isinstance(assign.expr.b, S.BinOp) and assign.expr.b.op == "add"


def test_comparison_chain_rejected():
    # (a < b) < c compares a width-1 to a width-32 operand.
    with pytest.raises(SyntaxError):
        parse("module t(in a: 32; in b: 32; in c: 32; out z: 32) "
              "{ var x: 32; while a < b < c { x := a } ; z ! x }")


# ---------------------------------------------------------------------------
# Width rules

def test_assign_width_mismatch():
    with pytest.raises(SyntaxError):
        parse("module t(in a: 16; out z: 32) { var x: 32; x := a ; z ! x }")


def test_literal_must_fit_context():
    with pytest.raises(SyntaxError):
        parse("module t(in a: 4; out z: 4) { var x: 4; x := a + 16 ; z ! x }")


def test_condition_must_be_one_bit():
    with pytest.raises(SyntaxError):
        parse(wrap("while a { x := a } ; z ! x"))


def test_zero_width_channel_parses():
    mod = parse("module t(in a: 32; in tick: 0; out z: 32; out tock: 0) "
                "{ var x: 32; var t0: 0; "
                "x := a ; tick ? t0 ; z ! x ; tock ! t0 }")
    assert mod.vars["t0"] == 0


def test_width_out_of_range():
    with pytest.raises(SyntaxError):
        parse("module t(in a: 513; out z: 513) { var x: 513; x := a ; z ! x }")


# ---------------------------------------------------------------------------
# Name and site checks

def test_undeclared_variable():
    with pytest.raises(UndeclaredName):
        parse(wrap("q := a ; z ! x"))


def test_undeclared_channel():
    with pytest.raises(UndeclaredName):
        parse(wrap("x := a ; w ! x"))


@pytest.mark.parametrize("ports, decls, name", [
    ("in a: 32; out z: 32", "var x: 32; chan x: 32; var b: 32; chan b: 32;",
     "b"),
    ("in a: 32; out z: 32", "var x: 32; var z: 32;", "z"),
    ("in a: 32; in a: 32; out z: 32", "var x: 32;", "a"),
])
def test_name_declared_twice_names_the_smallest(ports, decls, name):
    with pytest.raises(SyntaxError) as err:
        parse(wrap("x := a ; z ! x", ports=ports, decls=decls))
    assert str(err.value) == f"name declared twice: {name}"


def test_huge_port_array_is_checked_in_linear_time():
    # Each name was once counted against every other declared name.  A
    # port array this long passes MAX_UNROLL, so the names are channels.
    text = wrap("z ! a", ports="in a: 8; out z: 8",
                decls="".join(f"chan c{k}: 8; " for k in range(100_000)))
    start = time.perf_counter()
    with pytest.raises(ParConflict) as err:
        parse(text)
    assert time.perf_counter() - start < 5
    assert str(err.value) == "channel c0 needs exactly one send site, found 0"


UNROLLED = {
    "port array": lambda n: (f"module t(in c[1..{n}]: 8; out z: 8) "
                             f"{{ z ! 1 }}"),
    "generated arms": lambda n: (f"module t(in q: 13; out z: 8) {{ case q of "
                                 f"{{ for j in 1..{n} {{ z ! 1 }} }} }}"),
    "both": lambda n: (f"module t(in c[1..{n // 2}]: 8; in q: 13; "
                       f"out z: 8) {{ case q of {{ for j in "
                       f"1..{n - n // 2} {{ z ! 1 }} }} }}"),
}


@pytest.mark.parametrize("shape", sorted(UNROLLED))
def test_unroll_cap_counts_the_whole_program(shape):
    # MAX_UNROLL items reach the checker, which refuses the program for
    # its own reasons; one more is refused where the range that passes
    # the cap starts.
    with pytest.raises(ParConflict):
        parse(UNROLLED[shape](S.MAX_UNROLL))
    text = UNROLLED[shape](S.MAX_UNROLL + 1)
    with pytest.raises(SyntaxError) as err:
        parse(text)
    assert str(err.value).endswith(
        f": program unrolls more than {S.MAX_UNROLL} port-array elements "
        f"and generated arms")
    where = text.index("for") if "for" in text else text.index("in c")
    assert (err.value.line, err.value.col) == (1, where + 1)


@pytest.mark.parametrize("body", [
    "case q of { for j in 0..199999999 { z ! 1 } }",
    "case q of { for j in 0..99 { case q of { for k in 0..99 "
    "{ z ! 1 } } } }"])
def test_unroll_cap_refuses_before_unrolling(body):
    # Unrolled first, the range would take hours; the nested generator
    # re-parses its inner range once per outer value, and each counts.
    start = time.perf_counter()
    with pytest.raises(SyntaxError, match="program unrolls more than"):
        parse(wrap(body, ports="in q: 8; out z: 8", decls=""))
    assert time.perf_counter() - start < 1


def test_unwritten_variable_rejected():
    with pytest.raises(UndeclaredName):
        parse(wrap("x := a ; z ! x", decls="var x: 32; var dead: 32;"))


def test_send_on_input_port_rejected():
    with pytest.raises(SyntaxError):
        parse(wrap("a ! 1 ; x := 1 ; z ! x"))


def test_parallel_writes_conflict():
    with pytest.raises(ParConflict):
        parse(wrap("{ x := a || x := 2 } ; z ! x"))


def test_parallel_sends_conflict():
    with pytest.raises(ParConflict):
        parse(wrap("x := a ; { z ! x || z ! x }"))


def test_two_sequential_send_sites_conflict():
    # One static site per channel: even sequenced sends are rejected.
    with pytest.raises(ParConflict):
        parse(wrap("x := a ; z ! x ; z ! x"))


def test_two_consuming_sites_conflict():
    with pytest.raises(ParConflict):
        parse(wrap("x := a ; x := a ; z ! x"))


def test_loop_must_be_outermost():
    with pytest.raises(SyntaxError):
        parse(wrap("x := a ; loop { z ! x }"))


# ---------------------------------------------------------------------------
# Case arms and generators

def test_case_duplicate_arm():
    with pytest.raises(SyntaxError):
        parse(wrap("case a of { 0: { x := 1 } 0: { x := 2 } } ; z ! x",
                   ports="in a: 1; out z: 32"))


def test_case_arm_value_must_fit_selector():
    with pytest.raises(SyntaxError):
        parse(wrap("case a of { 0: { x := 1 } 2: { x := 2 } } ; z ! x",
                   ports="in a: 1; out z: 32"))


def test_for_generator_unrolls_arms():
    src = ("module t(in s: 2; in c[0..3]: 8; out z: 8) { var x: 8; "
           "case s of { for j in 0..3 { x := c[j] } } ; z ! x }")
    mod = parse(src)

    def find_case(st):
        if isinstance(st, S.CaseStmt):
            return st
        for attr in ("body", "parts", "branches", "then", "els"):
            sub = getattr(st, attr, None)
            if sub is None:
                continue
            for item in sub if isinstance(sub, tuple) else (sub,):
                hit = find_case(item)
                if hit is not None:
                    return hit
        return None

    case = find_case(mod.body)
    assert [v for v, _ in case.arms] == [0, 1, 2, 3]
    # The generator variable was substituted into the indexed channel name.
    arm0 = case.arms[0][1]
    assert isinstance(arm0, S.Assign)
    assert isinstance(arm0.expr, S.Name) and arm0.expr.ident == "c[0]"


SHARED_LITERAL = (
    "module t(in i: 2; out z: 4) { var s: 2; var x: 4; s := i ; "
    "case s of { for j in 0..3 { if j == 1 { x := 7 } else { x := 9 } } } ;"
    " z ! x }")


def test_each_generated_arm_has_its_own_literal_widths():
    # The literal 1 in `j == 1` compares with 0, 1, 2, 3 in turn; each arm
    # lowers with the widths it was checked with (one node was shared by
    # all four arms, so every arm got the last arm's width of 2).
    mod = parse(SHARED_LITERAL)
    case = mod.body.body.parts[1]
    assert [mod.widths[arm.cond.b] for _, arm in case.arms] == [1, 1, 2, 2]
    net = compile(mod)
    assert validate(net) == []
    eqs = sorted((c.id, c.params["inputs"]) for c in net.components.values()
                 if c.kind is Kind.OPERATOR and c.params["fn"] == "eq")
    assert [inputs for _, inputs in eqs] == [[1, 1], [1, 1], [2, 2], [2, 2]]
    plan = policy_pac(net, mode="async")
    report = run(apply(net, plan),
                 SimConfig(stimulus=parse_stimulus("i: 0 1 2 3 1")))
    assert [v for v, _ in report.results["z"]] == [9, 7, 9, 9, 7]


EXPR_NODES = (S.Num, S.Name, S.BinOp, S.UnOp)
DATA = Path(__file__).parent / "data"


def expr_nodes(node) -> list:
    """Every expression node under ``node``, each node object once."""
    found, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif dataclasses.is_dataclass(item):
            if isinstance(item, EXPR_NODES):
                found.append(item)
            stack.extend(getattr(item, f.name)
                         for f in dataclasses.fields(item))
    return found


SOURCES = [*(benchmark(name).source for name in benchmark_names()),
           *sorted(DATA.glob("*.csp"))]


@pytest.mark.parametrize("text", [SHARED_LITERAL,
                                  *(p.read_text() for p in SOURCES)],
                         ids=["SHARED_LITERAL", *(p.stem for p in SOURCES)])
def test_every_expression_node_has_one_width_of_its_own(text):
    # The checker keys widths by node, and the lowering reads them back the
    # same way, so each node of each unrolled arm needs an entry of its own.
    mod = parse(text)
    nodes = expr_nodes(mod.body)
    assert len({id(node) for node in nodes}) == len(nodes)
    assert len(mod.widths) == len(nodes)
    assert all(node in mod.widths for node in nodes)


def package_dataclasses() -> list[type]:
    """Every dataclass that a module of the package defines."""
    found = []
    for info in pkgutil.walk_packages(elastika.__path__, "elastika."):
        module = importlib.import_module(info.name)
        found.extend(obj for obj in vars(module).values()
                     if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                     and obj.__module__ == info.name)
    return found


def test_every_dataclass_has_a_docstring():
    # Without one, dataclasses builds __doc__ from the signature at import.
    classes = package_dataclasses()
    assert {"Network", "DelayTable", "SimReport"} <= {
        c.__name__ for c in classes}
    assert [c.__qualname__ for c in classes
            if c.__doc__.startswith(c.__name__ + "(")] == []


def test_frontend_records_compare_by_identity():
    # No node is compared by value; the checker keys widths by node.  So
    # dataclasses generates no __eq__, __hash__ or frozen __setattr__.
    records = [c for c in package_dataclasses()
               if c.__module__.startswith("elastika.frontend.")]
    assert sorted(c.__name__ for c in records) == sorted([
        "Token", "Pos", "Num", "Name", "BinOp", "UnOp", "Skip", "Assign",
        "Send", "Receive", "Seq", "Par", "LoopStmt", "WhileStmt", "IfStmt",
        "CaseStmt", "PortDecl", "SourceModule", "_Src", "_Pending"])
    for cls in records:
        assert not cls.__dataclass_params__.frozen, cls
        assert cls.__eq__ is object.__eq__, cls
        assert cls.__hash__ is object.__hash__, cls
        assert cls.__setattr__ is object.__setattr__, cls


def test_inner_generator_variable_shadows_the_outer():
    src = ("module t(in s: 2; out z: 8) { var x: 8; var q: 2; q := s ; "
           "case q of { for j in 0..1 { case q of { for j in 2..3 "
           "{ x := j } } } } ; z ! x }")
    outer = next(st for st in parse(src).body.body.parts
                 if isinstance(st, S.CaseStmt))
    for _, arm in outer.arms:
        assert [(v, st.expr.value) for v, st in arm.arms] == [(2, 2), (3, 3)]


def test_empty_generator_range_rejected():
    with pytest.raises(SyntaxError):
        parse(wrap("case a of { for j in 3..1 { x := 1 } } ; z ! x",
                   ports="in a: 2; out z: 32"))


# ---------------------------------------------------------------------------
# Lowering

@pytest.mark.parametrize("name", ["elgcd", "poly", "smul"])
def test_compile_benchmarks_validate_clean(name):
    src = benchmark(name).source.read_text()
    net = compile(parse(src))
    assert validate(net) == []
    # Compilation itself never inserts buffers; that is the policies' job.
    assert net.buffer_count() == 0


def test_compile_ports_match_declaration():
    src = benchmark("elgcd").source.read_text()
    net = compile(parse(src))
    assert sorted(net.ports) == ["a", "b", "g"]
    assert net.ports["a"].dir == "in"
    assert net.ports["g"].dir == "out"
    assert net.ports["g"].width == 32


def test_compile_loop_merges_are_annotated(elgcd_net):
    loops = [c for c in elgcd_net.components.values()
             if c.kind is Kind.MERGE and "loop" in c.params]
    assert loops, "a while loop lowers to at least one loop-closing merge"


def test_compile_refuses_a_module_nested_past_the_stack():
    # The checker passes a 300-term sum; lowering it with less stack left
    # than its depth ran out of stack in a RecursionError.
    mod = parse(wrap("a ? x ; z ! " + " + ".join(["x"] * 300)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        with pytest.raises(LowerError, match="^program nested too deeply$"):
            compile(mod)
    finally:
        sys.setrecursionlimit(limit)


# Programs with `n` brackets open at their deepest point, one shape each.
NESTED = {
    "parentheses": lambda n: "a ? x ; z ! " + "(" * n + "x" + ")" * n,
    "blocks": lambda n: "{" * n + "a ? x ; z ! x" + "}" * n,
    "ifs": lambda n: "a ? x ; " + "if x == 1 { " * n + "x := x + 1"
                     + " } else { skip }" * n + " ; z ! x",
    # Each level opens two braces: the case's and its arm's.
    "cases": lambda n: "a ? x ; "
                       + "case x of { 1: { skip } 0: { " * (n // 2)
                       + "x := x + 1" + " } }" * (n // 2) + " ; z ! x",
}


def _at_depth(frames: int, fn):
    """fn() called from ``frames`` frames below this one."""
    return fn() if frames == 0 else _at_depth(frames - 1, fn)


def _compile_or_refuse(text: str):
    try:
        return compile(parse(text))
    except SyntaxError as exc:
        return str(exc)


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_ceiling_does_not_depend_on_the_caller(shape):
    n = S.MAX_NESTING - (S.MAX_NESTING % 2 if shape == "cases" else 0)
    deeper = n + (2 if shape == "cases" else 1)
    refusals = set()
    for frames in (0, 400):
        assert not isinstance(
            _at_depth(frames, lambda: _compile_or_refuse(
                wrap(NESTED[shape](n), "in a: 8; out z: 8", "var x: 8;"))),
            str)
        refusals.add(_at_depth(frames, lambda: _compile_or_refuse(
            wrap(NESTED[shape](deeper), "in a: 8; out z: 8", "var x: 8;"))))
    assert len(refusals) == 1
    (message,) = refusals
    assert message.endswith(": program nested too deeply: more than "
                            f"{S.MAX_NESTING} parentheses and braces open")


def test_nesting_refusal_points_at_the_bracket_too_many():
    text = wrap("z ! " + "(" * (S.MAX_NESTING + 1) + "a"
                + ")" * (S.MAX_NESTING + 1), decls="")
    col = text.index("(" * (S.MAX_NESTING + 1)) + S.MAX_NESTING + 1
    with pytest.raises(SyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_operator_chains_still_meet_the_recursion_backstop():
    # Chains of operators are not brackets: only the stack bounds them.
    with pytest.raises(SyntaxError, match="^program nested too deeply$"):
        parse(wrap("a ? x ; z ! " + " + ".join(["x"] * 1000)))


def test_frontend_exports():
    assert frontend.compile is compile
    assert issubclass(LowerError, Exception)


# ---------------------------------------------------------------------------
# Parser fuzz

FUZZ_SOURCES = sorted(
    [*(benchmark(name).source for name in benchmark_names()),
     *(Path(__file__).parent / "data").glob("*.csp")])

# ASCII the grammar uses, and digits and letters it does not.
_FUZZ_CHARS = st.one_of(st.sampled_from(list("aj_09x #\n;:{}[]()!?+-*<>=|.")),
                        st.sampled_from(list("²٣é１ßЖ")))


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_sources_compile_or_raise_frontend_errors(data):
    # One to three insertions, deletions or copied spans in a checked-in
    # source: the result is a net that validates, or a FrontendError or
    # LowerError, never another exception.
    text = data.draw(st.sampled_from(FUZZ_SOURCES)).read_text()
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        how = data.draw(st.sampled_from(["insert", "delete", "copy"]))
        if how == "insert":
            piece = data.draw(st.text(_FUZZ_CHARS, min_size=1, max_size=3))
        elif how == "delete":
            piece, text = "", text[:at] + text[at + data.draw(
                st.integers(1, 8)):]
        else:
            start = data.draw(st.integers(0, len(text)))
            piece = text[start:start + data.draw(st.integers(1, 40))]
        text = text[:at] + piece + text[at:]
    try:
        net = compile(parse(text))
    except (FrontendError, LowerError):
        return
    assert validate(net) == []
