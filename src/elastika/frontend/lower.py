"""Lowering from checked source modules to elastic networks.

Syntax-directed, macro-module style: every statement owns a zero-width
activation in (go) and out (done).  Sequencing chains done to go, Par is a
Fork/Join pair, While is a Merge/Steer cycle, If and Case are Steer/Merge
pairs, the top-level loop closes its activation cycle through an Initial.
No Buffer components are ever emitted here; buffering is a separate phase.

Variables compile to a single Variable component with one read port pair
per textual read site.  A variable with several write sites funnels the
values through a Merge into the single write port; completion is routed
back to the active site by a small site tag (const per site, tag Merge,
Join with the write done, Steer).  Mutual exclusion of the sites is
guaranteed by sequencing plus the ParConflict check, so the first-come
Merge order always pairs a done with its own tag.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..ir import Component, Kind, Link, Network, Port
from . import syntax as S


class LowerError(Exception):
    pass


# A value reference is either the output port that will drive a new link or
# an existing link waiting for its consumer (channel data enters this way).
@dataclass(eq=False)
class _Src:
    """Output port ``port`` of ``comp``, not yet wired."""
    comp: str
    port: int
    width: int


@dataclass(eq=False)
class _Pending:
    """A link already made, waiting for its consumer."""
    link: Link
    width: int


ValueRef = Union[_Src, _Pending]


class _Builder:
    def __init__(self, name: str):
        self.net = Network(name)
        self._nlink = 0

    def comp(self, cid: str, kind: Kind, **params) -> str:
        if cid in self.net.components:
            raise LowerError(f"duplicate component id {cid}")
        self.net.components[cid] = Component(cid, kind, params)
        return cid

    def new_link(self, width: int) -> Link:
        lid = f"w{self._nlink:04d}"
        self._nlink += 1
        ln = Link(lid, width, None, None)
        self.net.links[lid] = ln
        return ln

    def wire(self, src: _Src, dst: tuple[str, int]) -> Link:
        ln = self.new_link(src.width)
        ln.src = (src.comp, src.port)
        ln.dst = dst
        return ln

    def feed(self, val: ValueRef, dst: tuple[str, int]) -> Link:
        if isinstance(val, _Src):
            return self.wire(val, dst)
        if val.link.dst is not None:
            raise LowerError(f"link {val.link.id} consumed twice")
        val.link.dst = dst
        return val.link


class _VarInfo:
    def __init__(self, comp_id: str, width: int, n_reads: int, n_writes: int):
        self.comp = comp_id
        self.width = width
        self.n_reads = n_reads
        self.n_writes = n_writes
        self.next_read = 0
        self.next_write = 0
        self.tag_width = max(1, (n_writes - 1).bit_length()) if n_writes > 1 else 0


class _Lowerer:
    def __init__(self, mod: S.SourceModule):
        self.mod = mod
        self.b = _Builder(mod.name)
        self.vars: dict[str, _VarInfo] = {}
        self.chan_links: dict[str, Link] = {}
        self.out_port_links: dict[str, Link] = {}
        self.widths = mod.widths

    # -- setup ------------------------------------------------------------

    def run(self) -> Network:
        self._declare_vars()
        self._declare_in_ports()
        body = self.mod.body
        assert isinstance(body, S.LoopStmt)
        self._lower_loop(body, "m")
        self._declare_out_ports()
        for name, ln in self.chan_links.items():
            if name in self.mod.chans and (ln.dst is None or ln.src is None):
                raise LowerError(f"channel {name} left dangling")
            if name not in self.mod.chans and ln.dst is None:
                raise LowerError(f"input port {name} never consumed")
        return self.b.net

    def _declare_vars(self) -> None:
        for name, width in self.mod.vars.items():
            n_r, n_w = self.mod.reads[name], self.mod.writes[name]
            cid = self.b.comp(f"var.{name}", Kind.VARIABLE,
                              width=width, reads=n_r)
            info = _VarInfo(cid, width, n_r, n_w)
            self.vars[name] = info
            if n_w > 1:
                k = info.tag_width
                wm = self.b.comp(f"var.{name}.wmerge", Kind.MERGE,
                                 width=width, inputs=n_w)
                tm = self.b.comp(f"var.{name}.tmerge", Kind.MERGE,
                                 width=k, inputs=n_w)
                tj = self.b.comp(f"var.{name}.tjoin", Kind.JOIN, inputs=[0, k])
                ts = self.b.comp(f"var.{name}.tsteer", Kind.STEER,
                                 input=k, select=k, outputs=n_w,
                                 table={str(i): i for i in range(n_w)})
                self.b.wire(_Src(wm, 0, width), (cid, 0))
                self.b.wire(_Src(cid, 0, 0), (tj, 0))
                self.b.wire(_Src(tm, 0, k), (tj, 1))
                self.b.wire(_Src(tj, 0, k), (ts, 0))

    def _declare_in_ports(self) -> None:
        for p in self.mod.ports:
            if p.dir == "in":
                ln = self.b.new_link(p.width)
                self.chan_links[p.name] = ln
                self.b.net.ports[p.name] = Port(p.name, "in", p.width, ln.id)

    def _declare_out_ports(self) -> None:
        for p in self.mod.ports:
            if p.dir == "out":
                ln = self.out_port_links.get(p.name)
                if ln is None:
                    raise LowerError(f"output port {p.name} never driven")
                self.b.net.ports[p.name] = Port(p.name, "out", p.width, ln.id)

    def _chan_ref(self, name: str) -> _Pending:
        if name in self.chan_links:
            ln = self.chan_links[name]
        else:
            width = self.mod.chans[name]
            ln = self.b.new_link(width)
            self.chan_links[name] = ln
        return _Pending(ln, ln.width)

    # -- statements -------------------------------------------------------

    def lower_stmt(self, st: S.Stmt, go: _Src, path: str) -> _Src:
        if isinstance(st, S.Skip):
            return go
        if isinstance(st, S.Seq):
            cur = go
            for i, part in enumerate(st.parts):
                cur = self.lower_stmt(part, cur, f"{path}.{i}")
            return cur
        if isinstance(st, S.Par):
            n = len(st.branches)
            fork = self.b.comp(f"{path}.fork", Kind.FORK, input=0, outputs=[0] * n)
            join = self.b.comp(f"{path}.join", Kind.JOIN, inputs=[0] * n)
            self.b.wire(go, (fork, 0))
            for i, br in enumerate(st.branches):
                done = self.lower_stmt(br, _Src(fork, i, 0), f"{path}.p{i}")
                self.b.wire(done, (join, i))
            return _Src(join, 0, 0)
        if isinstance(st, S.WhileStmt):
            # loop=1 marks port 1 as the body-done feedback, so dependency
            # extraction knows tokens on that link belong to the next pass.
            merge = self.b.comp(f"{path}.merge", Kind.MERGE, width=0, inputs=2,
                                loop=1)
            self.b.wire(go, (merge, 0))
            cond, _ = self.lower_expr(st.cond, _Src(merge, 0, 0),
                                      f"{path}.c", extra_acts=0)
            steer = self.b.comp(f"{path}.steer", Kind.STEER, input=1, select=1,
                                outputs=2, table={"1": 0, "0": 1})
            self.b.wire(cond, (steer, 0))
            body_done = self.lower_stmt(st.body, _Src(steer, 0, 0), f"{path}.b")
            self.b.wire(body_done, (merge, 1))
            return _Src(steer, 1, 0)
        if isinstance(st, S.IfStmt):
            cond, _ = self.lower_expr(st.cond, go, f"{path}.c", extra_acts=0)
            steer = self.b.comp(f"{path}.steer", Kind.STEER, input=1, select=1,
                                outputs=2, table={"1": 0, "0": 1})
            merge = self.b.comp(f"{path}.merge", Kind.MERGE, width=0, inputs=2)
            self.b.wire(cond, (steer, 0))
            then_done = self.lower_stmt(st.then, _Src(steer, 0, 0), f"{path}.t")
            els_done = self.lower_stmt(st.els, _Src(steer, 1, 0), f"{path}.e")
            self.b.wire(then_done, (merge, 0))
            self.b.wire(els_done, (merge, 1))
            return _Src(merge, 0, 0)
        if isinstance(st, S.CaseStmt):
            sel, _ = self.lower_expr(st.sel, go, f"{path}.c", extra_acts=0)
            n = len(st.arms)
            table = {str(value): i for i, (value, _) in enumerate(st.arms)}
            steer = self.b.comp(f"{path}.steer", Kind.STEER, input=sel.width,
                                select=sel.width, outputs=n, table=table)
            merge = self.b.comp(f"{path}.merge", Kind.MERGE, width=0, inputs=n)
            self.b.wire(sel, (steer, 0))
            for i, (value, arm) in enumerate(st.arms):
                done = self.lower_stmt(arm, _Src(steer, i, 0), f"{path}.a{value}")
                self.b.wire(done, (merge, i))
            return _Src(merge, 0, 0)
        if isinstance(st, S.Assign):
            info = self.vars[st.var]
            tag_acts = 1 if info.n_writes > 1 else 0
            val, tag_act = self.lower_expr(st.expr, go, f"{path}.e",
                                           extra_acts=tag_acts)
            return self._write_var(info, val, tag_act, path)
        if isinstance(st, S.Receive):
            info = self.vars[st.var]
            acts = 2 if info.n_writes > 1 else 1
            gate_act, tag_act = self._split_act(go, acts, path)
            join = self.b.comp(f"{path}.join", Kind.JOIN,
                               inputs=[0, info.width], channel=st.chan)
            self.b.wire(gate_act, (join, 0))
            self.b.feed(self._chan_ref(st.chan), (join, 1))
            return self._write_var(info, _Src(join, 0, info.width), tag_act, path)
        if isinstance(st, S.Send):
            src, _ = self.lower_expr(st.expr, go, f"{path}.e", extra_acts=0)
            fork = self.b.comp(f"{path}.fork", Kind.FORK, input=src.width,
                               outputs=[src.width, 0], channel=st.chan)
            self.b.wire(src, (fork, 0))
            if st.chan in self.mod.chans:
                data = self.chan_links.get(st.chan)
                if data is None:
                    data = self.b.new_link(src.width)
                    self.chan_links[st.chan] = data
                if data.src is not None:
                    raise LowerError(f"channel {st.chan} driven twice")
                data.src = (fork, 0)
            else:
                data = self.b.new_link(src.width)
                data.src = (fork, 0)
                self.out_port_links[st.chan] = data
            return _Src(fork, 1, 0)
        if isinstance(st, S.LoopStmt):
            raise LowerError("nested loop survived checking")
        raise LowerError(f"unknown statement {st!r}")

    def _lower_loop(self, st: S.LoopStmt, path: str) -> None:
        init = self.b.comp(f"{path}.i", Kind.INITIAL, width=0, value=0)
        done = self.lower_stmt(st.body, _Src(init, 0, 0), f"{path}.b")
        self.b.wire(done, (init, 0))

    def _split_act(self, go: _Src, n: int, path: str
                   ) -> tuple[_Src, Optional[_Src]]:
        if n == 1:
            return go, None
        fork = self.b.comp(f"{path}.gofork", Kind.FORK, input=0, outputs=[0] * n)
        self.b.wire(go, (fork, 0))
        return _Src(fork, 0, 0), _Src(fork, 1, 0)

    def _write_var(self, info: _VarInfo, val: ValueRef,
                   tag_act: Optional[_Src], path: str) -> _Src:
        site = info.next_write
        info.next_write += 1
        if info.n_writes == 1:
            self.b.feed(val, (info.comp, 0))
            return _Src(info.comp, 0, 0)
        assert tag_act is not None
        k = info.tag_width
        tag = self.b.comp(f"{path}.tag", Kind.OPERATOR, fn="const", value=site,
                          inputs=[0], out=k, delay_class="const")
        self.b.wire(tag_act, (tag, 0))
        self.b.wire(_Src(tag, 0, k), (f"{info.comp}.tmerge", site))
        self.b.feed(val, (f"{info.comp}.wmerge", site))
        return _Src(f"{info.comp}.tsteer", site, 0)

    # -- expressions ------------------------------------------------------

    def lower_expr(self, e: S.Expr, act: _Src, epath: str, extra_acts: int
                   ) -> tuple[_Src, Optional[_Src]]:
        """Lower ``e`` activated by ``act``.  Returns (value, spare act) where
        the spare is the extra activation copy the caller asked for.  The
        value is always a driven source: an expression with no constant
        and no variable read (a bare channel value) passes through a gate
        Join on the activation."""
        needed = _act_leaves(e, self.mod)
        gated = needed == 0
        total = max(needed, 1) + extra_acts
        counter = [0]
        if total == 1:
            def provider() -> _Src:
                counter[0] += 1
                return act
            spare = None
        else:
            fork = self.b.comp(f"{epath}.afork", Kind.FORK, input=0,
                               outputs=[0] * total)
            self.b.wire(act, (fork, 0))

            def provider() -> _Src:
                i = counter[0]
                counter[0] += 1
                return _Src(fork, i, 0)
            spare = _Src(fork, total - 1, 0) if extra_acts else None
        nops = [0]
        val = self._lower_expr_rec(e, provider, epath, nops)
        if gated:
            gate = self.b.comp(f"{epath}.gate", Kind.JOIN,
                               inputs=[0, val.width])
            self.b.wire(provider(), (gate, 0))
            self.b.feed(val, (gate, 1))
            val = _Src(gate, 0, val.width)
        used = counter[0] + (extra_acts if spare is not None else 0)
        if used != total:
            raise LowerError(f"activation accounting off at {epath}: "
                             f"{used} used of {total}")
        return val, spare

    def _lower_expr_rec(self, e: S.Expr, provider, epath: str, nops: list
                        ) -> ValueRef:
        w = self.widths[e]
        if isinstance(e, S.Num):
            cid = self._op_id(epath, nops)
            self.b.comp(cid, Kind.OPERATOR, fn="const", value=e.value,
                        inputs=[0], out=w, delay_class="const")
            self.b.wire(provider(), (cid, 0))
            return _Src(cid, 0, w)
        if isinstance(e, S.Name):
            if e.ident in self.vars:
                info = self.vars[e.ident]
                site = info.next_read
                info.next_read += 1
                self.b.wire(provider(), (info.comp, 1 + site))
                return _Src(info.comp, 1 + site, info.width)
            return self._chan_ref(e.ident)
        if isinstance(e, S.UnOp):
            a = self._lower_expr_rec(e.a, provider, epath, nops)
            cid = self._op_id(epath, nops)
            self.b.comp(cid, Kind.OPERATOR, fn=e.op, inputs=[a.width],
                        out=w, delay_class=e.op)
            self.b.feed(a, (cid, 0))
            return _Src(cid, 0, w)
        if isinstance(e, S.BinOp):
            a = self._lower_expr_rec(e.a, provider, epath, nops)
            bb = self._lower_expr_rec(e.b, provider, epath, nops)
            cid = self._op_id(epath, nops)
            self.b.comp(cid, Kind.OPERATOR, fn=e.op,
                        inputs=[a.width, bb.width], out=w,
                        delay_class=e.op)
            self.b.feed(a, (cid, 0))
            self.b.feed(bb, (cid, 1))
            return _Src(cid, 0, w)
        raise LowerError(f"unknown expression {e!r}")

    def _op_id(self, epath: str, nops: list) -> str:
        cid = f"{epath}{nops[0]}"
        nops[0] += 1
        return cid


def _act_leaves(e: S.Expr, mod: S.SourceModule) -> int:
    """Number of activation tokens the expression itself consumes: one per
    constant and one per variable read; channel reads bring their own token."""
    if isinstance(e, S.Num):
        return 1
    if isinstance(e, S.Name):
        return 1 if e.ident in mod.vars else 0
    if isinstance(e, S.UnOp):
        return _act_leaves(e.a, mod)
    if isinstance(e, S.BinOp):
        return _act_leaves(e.a, mod) + _act_leaves(e.b, mod)
    return 0


def compile(mod: S.SourceModule) -> Network:
    """Compile a checked source module to an elastic network with no buffers;
    a module nested deeper than the lowering can recurse is a LowerError."""
    try:
        return _Lowerer(mod).run()
    except RecursionError:
        raise LowerError("program nested too deeply") from None
