"""Seeded generator of `wide` programs and their reference outputs.

A generated program stays inside the subset of docs/grammar.md: one
module, 32-bit variables written before they are read in every
activation, one send and one receive site per channel, `loop` only as the
implicit outer loop.  Its shape is fixed by a size slot (how many
variables and assignments); the seed picks operators, operands,
constants and the input values, so one slot gives nets of nearly the same
size under every seed.

Each program carries its own reference: `evaluate` interprets the
generator's statement tree directly in Python, word arithmetic modulo
2^32, and never looks at the compiler's output.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WIDTH = 32
MASK = (1 << WIDTH) - 1
ARITH = ("+", "-", "*", "&", "|", "^")
SHIFTS = ("<<", ">>")
COMPARE = ("<", ">", "==", "!=", "<=", ">=")
INPUTS = ("a", "b", "c")
OUTPUTS = ("r", "s")


@dataclass(frozen=True)
class Slot:
    """Size of one generated program."""
    nvars: int   # 32-bit variables besides the loop counter
    pre: int     # assignments before the while loop
    body: int    # assignments in each third of the loop body
    laps: int    # iterations of the while loop per activation


# Sizes span roughly 145 to 225 links of the compiled, unbuffered net.
SLOTS = (Slot(3, 1, 1, 2), Slot(4, 1, 1, 2), Slot(5, 2, 1, 2),
         Slot(6, 2, 2, 2))


@dataclass(frozen=True)
class Program:
    seed: int
    slot: Slot
    text: str
    body: tuple
    stimulus: dict       # input port -> values
    expected: dict       # output port -> values


# Statement tree: ("skip",) | ("assign", var, expr) | ("send", chan, expr)
# | ("recv", chan, var) | ("seq", [stmt]) | ("par", [stmt])
# | ("while", cond, stmt) | ("if", cond, stmt, stmt)
# | ("case", cond, [stmt, stmt]).
# Expressions: ("var", name) | ("port", name) | ("const", value)
# | ("bin", op, left, right).


def _expr_text(e) -> str:
    tag = e[0]
    if tag in ("var", "port"):
        return e[1]
    if tag == "const":
        return str(e[1])
    return f"({_expr_text(e[2])} {e[1]} {_expr_text(e[3])})"


def _stmt_text(st, indent: str) -> list[str]:
    tag = st[0]
    if tag == "skip":
        return [f"{indent}skip"]
    if tag == "assign":
        return [f"{indent}{st[1]} := {_expr_text(st[2])}"]
    if tag == "send":
        return [f"{indent}{st[1]} ! {_expr_text(st[2])}"]
    if tag == "recv":
        return [f"{indent}{st[1]} ? {st[2]}"]
    if tag == "seq":
        out: list[str] = []
        for i, part in enumerate(st[1]):
            lines = _stmt_text(part, indent)
            if i < len(st[1]) - 1:
                lines[-1] += " ;"
            out += lines
        return out
    inner = indent + "  "
    if tag == "par":
        out = []
        for i, br in enumerate(st[1]):
            head = f"{indent}{{" if i == 0 else f"{indent}|| {{"
            out += [head] + _stmt_text(br, inner) + [f"{indent}}}"]
        return [f"{indent}{{"] + ["  " + l for l in out] + [f"{indent}}}"]
    if tag == "while":
        return ([f"{indent}while {_expr_text(st[1])} {{"]
                + _stmt_text(st[2], inner) + [f"{indent}}}"])
    if tag == "if":
        return ([f"{indent}if {_expr_text(st[1])} {{"]
                + _stmt_text(st[2], inner) + [f"{indent}}} else {{"]
                + _stmt_text(st[3], inner) + [f"{indent}}}"])
    if tag == "case":
        out = [f"{indent}case {_expr_text(st[1])} of {{"]
        for value, arm in enumerate(st[2]):
            out += [f"{inner}{value}: {{"] + _stmt_text(arm, inner + "  ")
            out += [f"{inner}}}"]
        return out + [f"{indent}}}"]
    raise ValueError(f"unknown statement {tag!r}")


def _eval_expr(e, env: dict, inputs: dict) -> int:
    tag = e[0]
    if tag == "var":
        return env[e[1]]
    if tag == "port":
        return inputs[e[1]]
    if tag == "const":
        return e[1]
    op, a, b = e[1], _eval_expr(e[2], env, inputs), _eval_expr(e[3], env, inputs)
    if op == "+":
        return (a + b) & MASK
    if op == "-":
        return (a - b) & MASK
    if op == "*":
        return (a * b) & MASK
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "<<":
        return (a << b) & MASK if b < WIDTH else 0
    if op == ">>":
        return a >> b if b < WIDTH else 0
    return int({"<": a < b, ">": a > b, "==": a == b, "!=": a != b,
                "<=": a <= b, ">=": a >= b}[op])


def _exec(st, env: dict, inputs: dict, outputs: dict) -> None:
    tag = st[0]
    if tag == "skip":
        pass
    elif tag == "assign":
        env[st[1]] = _eval_expr(st[2], env, inputs)
    elif tag == "send":
        value = _eval_expr(st[2], env, inputs)
        if st[1] in outputs:
            outputs[st[1]].append(value)
        else:
            env["$chan." + st[1]] = value
    elif tag == "recv":
        env[st[2]] = env.pop("$chan." + st[1])
    elif tag == "seq":
        for part in st[1]:
            _exec(part, env, inputs, outputs)
    elif tag == "par":
        # Branches touch disjoint variables, so running every sender
        # before its receiver is one valid interleaving.
        for br in sorted(st[1], key=lambda b: b[0] == "recv"):
            _exec(br, env, inputs, outputs)
    elif tag == "while":
        while _eval_expr(st[1], env, inputs):
            _exec(st[2], env, inputs, outputs)
    elif tag == "if":
        _exec(st[2] if _eval_expr(st[1], env, inputs) else st[3],
              env, inputs, outputs)
    elif tag == "case":
        _exec(st[2][_eval_expr(st[1], env, inputs)], env, inputs, outputs)
    else:
        raise ValueError(f"unknown statement {tag!r}")


def evaluate(body, stimulus: dict, outputs=OUTPUTS) -> dict:
    """Outputs of the program for each input set, by direct interpretation.

    One activation per input set: each input port is read once, variables
    start empty and every output port is sent once."""
    produced = {name: [] for name in outputs}
    count = len(next(iter(stimulus.values())))
    for k in range(count):
        _exec(body, {}, {p: vals[k] for p, vals in stimulus.items()},
              produced)
    return produced


class _Builder:
    def __init__(self, rng: random.Random, slot: Slot):
        self.rng = rng
        self.vars = [f"v{i}" for i in range(slot.nvars)]

    def operand(self, pool: list[str]):
        if self.rng.random() < 0.2:
            return ("const", self.rng.randrange(1, 1 << 16))
        return ("var", self.rng.choice(pool))

    def expr(self, pool: list[str]):
        if self.rng.random() < 0.2:
            return ("bin", self.rng.choice(SHIFTS), ("var", self.rng.choice(pool)),
                    ("const", self.rng.randrange(1, WIDTH)))
        return ("bin", self.rng.choice(ARITH), ("var", self.rng.choice(pool)),
                self.operand(pool))

    def cond(self, pool: list[str]):
        return ("bin", self.rng.choice(COMPARE), ("var", self.rng.choice(pool)),
                self.operand(pool))

    def chain(self, n: int) -> list:
        return [("assign", self.rng.choice(self.vars), self.expr(self.vars))
                for _ in range(n)]

    def rendezvous(self):
        """{ h ! e || h ? x || y := e' } over disjoint variables."""
        x, y = self.rng.sample(self.vars, 2)
        rest = [v for v in self.vars if v not in (x, y)]
        return ("par", [("send", "h", self.expr(rest)), ("recv", "h", x),
                        ("assign", y, self.expr(rest))])


def generate(seed: int, slot: Slot, inputs: int = 8) -> Program:
    """One seeded program of the given size with its stimulus and outputs."""
    rng = random.Random(seed)
    g = _Builder(rng, slot)
    v = g.vars
    # Every variable gets a value from the inputs before anything reads it.
    pre = [("assign", v[i], ("port", INPUTS[i]) if i < len(INPUTS)
            else g.expr(v[:i])) for i in range(len(v))]
    pre += g.chain(slot.pre)
    pre.append(("assign", "i", ("const", slot.laps)))
    branch = g.cond(v)
    loop_body = g.chain(slot.body)
    loop_body.append(("if", g.cond(v), ("seq", g.chain(slot.body)),
                      ("skip",)))
    loop_body.append(("case", branch, [("skip",),
                                       ("seq", g.chain(slot.body))]))
    loop_body.append(g.rendezvous())
    loop_body.append(("assign", "i", ("bin", "-", ("var", "i"), ("const", 1))))
    # `s` folds every variable, so each one is read and reaches an output.
    fold = ("var", v[0])
    for name in v[1:]:
        fold = ("bin", "^", fold, ("var", name))
    body = ("seq", pre + [
        ("while", ("bin", "!=", ("var", "i"), ("const", 0)),
         ("seq", loop_body)),
        ("par", [("send", "r", g.expr(v)), ("send", "s", fold)]),
    ])
    lines = [f"# generated wide program, seed {seed}",
             "module wide(" + "; ".join(
                 [f"in {p}: {WIDTH}" for p in INPUTS]
                 + [f"out {p}: {WIDTH}" for p in OUTPUTS]) + ") {"]
    lines += [f"  var {name}: {WIDTH};" for name in v + ["i"]]
    lines.append(f"  chan h: {WIDTH};")
    lines += _stmt_text(body, "  ") + ["}"]
    stimulus = {p: [rng.randrange(1 << WIDTH) for _ in range(inputs)]
                for p in INPUTS}
    return Program(seed=seed, slot=slot, text="\n".join(lines) + "\n",
                   body=body, stimulus=stimulus,
                   expected=evaluate(body, stimulus))
