"""Thread-modular abstract interpretation over the mini-C AST.

The third static tier (after checkelim's syntactic dataflow and the
whole-program lockset pass): an abstract interpreter with an interval
domain (:mod:`repro.sharc.domains`), analysed per thread context with
an interference fixpoint (:mod:`repro.sharc.interference`) in the
style of Miné's static analysis of embedded parallel C.  Each context
(``main`` plus every thread root) is walked as if sequential; reads of
shared named locations observe the join of every context's abstract
writes; the engine iterates until that interference environment
stabilises, widening late rounds so it always terminates.

The result is an analysis only: it places no runtime marks.  Each
static race the lockset pass reports is scored against the intervals
(:class:`RaceVerdict`) — *interval-refuted* when the racing contexts
provably index disjoint slices of the array (the fftw-style
partitioning idiom), *interval-confirmed* otherwise — with the
per-context witness bounds attached.  The verdicts ride into ``sharc
analyze`` (schema ``sharc-analyze/3``), the differential sweep's AI
precision column and the metrics payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfront import cast as A
from repro.sharc import domains as D
from repro.sharc.domains import Interval, TOP, const
from repro.sharc.interference import (InterferenceEnv,
                                      interference_fixpoint)
from repro.sharc.lockset import SPAWNS, LocksetResult, key_text, loc_key
from repro.sharc.seeds import SeedInfo

#: loop-head widening: iterate once, widen, then verify (plus backstop)
_LOOP_ITERS = 4
#: interprocedural parameter-environment propagation rounds per context
_PARAM_ROUNDS = 3
#: call-inlining depth cap for the final walk
_INLINE_DEPTH = 10


class AbsintStats:
    """The discharge census of a pass that discharges nothing."""

    #: always 0 (absint places no marks); the benchmark's
    #: ``sharc.sites_ai`` metric in perfbench/spans.py still reads it
    ai_elided = 0
    #: always 0, and read by perfbench/spans.py for the same reason
    ai_ranges = 0


@dataclass
class RaceVerdict:
    """One lockset static race scored against the interval facts."""

    key: tuple
    line: int
    refuted: bool
    #: context name -> encoded index interval actually proven there
    witness: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return key_text(self.key)

    @property
    def verdict(self) -> str:
        return "interval-refuted" if self.refuted \
            else "interval-confirmed"

    def as_dict(self) -> dict:
        return {"location": self.text, "line": self.line,
                "verdict": self.verdict, "witness": dict(self.witness)}


@dataclass
class AbsintResult:
    """Output of :func:`analyze_absint`."""

    stats: AbsintStats = field(default_factory=AbsintStats)
    #: interference fixpoint rounds actually taken
    rounds: int = 0
    #: structurally guaranteed by widening + caps; kept as an explicit
    #: observable for the termination tests
    terminated: bool = True
    contexts: tuple = ()
    #: stabilised shared-value environment, ``key -> Interval``
    interference: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)

    @property
    def refuted(self) -> int:
        return sum(1 for v in self.verdicts if v.refuted)

    @property
    def confirmed(self) -> int:
        return sum(1 for v in self.verdicts if not v.refuted)

    def interference_encoded(self) -> dict:
        return {key_text(k): D.encode(iv)
                for k, iv in sorted(self.interference.items())}

    def summary(self) -> str:
        return (f"absint: {self.refuted} race(s) interval-refuted / "
                f"{self.confirmed} confirmed, "
                f"{self.rounds} interference round(s)")


# -- the analyzer ------------------------------------------------------------

class _Analyzer:
    """One whole-program analysis over per-context value environments.

    Two modes share the walk:

    - **summary mode** (``inline=False``): per-context value analysis
      feeding the interference fixpoint.  Calls to defined functions
      join argument intervals into the callee's parameter environment
      (propagated over :data:`_PARAM_ROUNDS` rounds) and yield its
      joined return interval.
    - **final walk** (``inline=True``): one walk per context after the
      fixpoint stabilises, inlining defined calls so every array index
      is bounded with its call site's argument intervals.  It records
      the per-context index ranges the race verdicts are scored on.
    """

    def __init__(self, program: A.Program, seeds: SeedInfo) -> None:
        self.program = program
        self.defined = {f.name: f for f in program.functions()
                        if f.body is not None}
        self.global_names = frozenset(g.name for g in program.globals())
        roots = sorted(r for r in seeds.thread_roots if r in self.defined)
        self.contexts = tuple(["main"] + [r for r in roots
                                          if r != "main"]
                              ) if "main" in self.defined else tuple(roots)
        # Direct-call graph for per-context reachability.  Spawn
        # targets are *not* edges: they run in their own context.
        self.calls: dict = {}
        for name, func in self.defined.items():
            self.calls[name] = {
                e.callee.name for e in A.all_exprs(func.body)
                if e.__class__ is A.Call
                and e.callee.__class__ is A.Ident
                and e.callee.name in self.defined}
        # interprocedural value state (re-seeded per fixpoint round)
        self.param_envs: dict = {}     # fn -> {param -> Interval}
        self.ret_ivs: dict = {}        # fn -> Interval
        # per-(context, key, 'r'|'w') index ranges for refutation
        self.idx_ranges: dict = {}
        # walk-local state
        self.env: dict = {}
        #: the current path is dead (after ``break``/``continue``): a
        #: join with it keeps the other path's state unchanged
        self.dead = False
        self.context = ""
        self.inter: InterferenceEnv | None = None
        self.inline = False
        self.depth = 0
        self.call_stack: list = []
        self.cur_ret: Interval | None = None
        self._continues: list = []
        self._breaks: list = []

    # -- reachability --------------------------------------------------------

    def reachable(self, root: str) -> list:
        """Functions reachable from ``root`` over direct calls, in BFS
        order (callers before callees, approximately)."""
        order, seen = [], set()
        work = [root]
        while work:
            name = work.pop(0)
            if name in seen or name not in self.defined:
                continue
            seen.add(name)
            order.append(name)
            work.extend(sorted(self.calls.get(name, ())))
        return order

    # -- initial shared values ----------------------------------------------

    def initial_env(self) -> dict:
        """Global initialiser values (zero-init when absent), keyed
        like the interference environment."""
        init: dict = {}
        for g in self.program.globals():
            key = ("global", g.name)
            iv = None
            e = g.init
            if e is None:
                iv = const(0)  # mini-C globals are zero-initialised
            else:
                cls = e.__class__
                if cls in (A.IntLit, A.CharLit):
                    iv = const(e.value)
                elif cls is A.Unop and e.op == "-" \
                        and e.operand.__class__ in (A.IntLit, A.CharLit):
                    iv = const(-e.operand.value)
            if iv is not None:
                init[key] = iv
        return init

    # -- shared-location access ---------------------------------------------

    def _shared_read(self, key) -> Interval:
        iv = self.inter.read(key)
        return TOP if iv is None else iv

    def _shared_write(self, key, iv: Interval) -> None:
        self.inter.record(self.context, key, iv)

    # -- path state ----------------------------------------------------------

    def _snap(self) -> tuple:
        return dict(self.env), self.dead

    def _restore(self, snap: tuple) -> None:
        self.env, self.dead = dict(snap[0]), snap[1]

    def _merge_from(self, snap_a: tuple, snap_b: tuple) -> None:
        """Install the path-join of two walk states."""
        if snap_a[1]:
            self._restore(snap_b)
        elif snap_b[1]:
            self._restore(snap_a)
        else:
            self.env = D.join_env(snap_a[0], snap_b[0])
            self.dead = False

    # -- accesses ------------------------------------------------------------

    def _record(self, node: A.Expr, info, is_write: bool,
                idx_iv: Interval | None) -> None:
        """One runtime-checked array access at ``node``: joins its index
        interval into this context's range for the location (the
        refutation bookkeeping)."""
        if info is None or not info.is_dynamic or idx_iv is None:
            return
        lk = loc_key(node, self.global_names)
        if lk is None:
            return
        rk = (self.context, lk, "w" if is_write else "r")
        prev = self.idx_ranges.get(rk)
        self.idx_ranges[rk] = idx_iv if prev is None \
            else prev.join(idx_iv)

    def _index_iv(self, lhs: A.Expr) -> Interval | None:
        """The index interval of an array access (``None`` otherwise)."""
        if lhs.__class__ is A.Index:
            return self._quiet_eval(lhs.idx)
        return None

    # -- expression evaluation ----------------------------------------------

    def eval(self, e) -> Interval:
        if e is None:
            return TOP
        cls = e.__class__
        if cls is A.IntLit or cls is A.CharLit:
            return const(e.value)
        if cls in (A.FloatLit, A.NullLit, A.StrLit):
            return TOP
        if cls is A.SizeofExpr:
            return TOP  # operand never evaluated at runtime
        if cls is A.Ident:
            if e.name in self.global_names:
                return self._shared_read(("global", e.name))
            iv = self.env.get(e.name)
            return TOP if iv is None else iv
        if cls is A.Member or cls is A.Index:
            self._walk_lvalue(e)
            self._record(e, getattr(e, "sharc_read", None), False,
                         self._index_iv(e))
            lk = loc_key(e, self.global_names)
            return self._shared_read(lk) if lk is not None else TOP
        if cls is A.Unop:
            if e.op == "&":
                self._walk_lvalue(e.operand)
                return TOP
            if e.op == "*":
                self.eval(e.operand)
                return TOP
            if e.op in ("++", "--"):
                op = e.operand
                self._walk_lvalue(op)
                iv = self._lvalue_read(op)
                self._record(op, getattr(op, "sharc_read", None), False,
                             self._index_iv(op))
                delta = const(1) if e.op == "++" else const(-1)
                new = iv.add(delta)
                self._store(op, new)
                return iv if e.postfix else new
            iv = self.eval(e.operand)
            if e.op == "-":
                return iv.neg()
            if e.op == "!":
                return Interval(0, 1)
            return TOP
        if cls is A.Binop:
            return self._binop(e)
        if cls is A.Assign:
            return self._assign(e)
        if cls is A.Call:
            return self._call(e)
        if cls is A.SCastExpr:
            self._walk_lvalue(e.expr)
            return TOP
        if cls is A.CastExpr:
            return self.eval(e.expr)
        if cls is A.CondExpr:
            self.eval(e.cond)
            snap = self._snap()
            self._refine(e.cond, True)
            then_iv = self.eval(e.then)
            then_snap = self._snap()
            self._restore(snap)
            self._refine(e.cond, False)
            other_iv = self.eval(e.other)
            self._merge_from(then_snap, self._snap())
            return then_iv.join(other_iv)
        if cls is A.CommaExpr:
            iv = TOP
            for part in e.parts:
                iv = self.eval(part)
            return iv
        return TOP

    def _binop(self, e: A.Binop) -> Interval:
        op = e.op
        if op in ("&&", "||"):
            self.eval(e.lhs)
            snap = self._snap()
            if op == "&&":
                self._refine(e.lhs, True)
            else:
                self._refine(e.lhs, False)
            self.eval(e.rhs)
            self._merge_from(snap, self._snap())
            return Interval(0, 1)
        a = self.eval(e.lhs)
        b = self.eval(e.rhs)
        if op == "+":
            return a.add(b)
        if op == "-":
            return a.sub(b)
        if op == "*":
            return a.mul(b)
        if op == "%":
            return a.mod(b)
        if op == "/":
            if b.is_const and b.lo != 0 and a.is_bounded:
                lo, hi = a.lo, a.hi
                cands = [int(lo / b.lo), int(hi / b.lo)]
                return Interval(min(cands), max(cands))
            return TOP
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return Interval(0, 1)
        return TOP

    def _assign(self, e: A.Assign) -> Interval:
        lhs = e.lhs
        lhs_qt = getattr(lhs, "ctype", None)
        if e.op == "=" and lhs_qt is not None and lhs_qt.is_struct:
            self._walk_lvalue(e.rhs)
            self._walk_lvalue(lhs)
            return TOP
        rhs_iv = self.eval(e.rhs)
        self._walk_lvalue(lhs)
        idx_iv = self._index_iv(lhs)
        if e.op != "=":
            self._record(lhs, getattr(lhs, "sharc_read", None), False,
                         idx_iv)
            cur = self._lvalue_read(lhs)
            op = e.op[0]
            if op == "+":
                rhs_iv = cur.add(rhs_iv)
            elif op == "-":
                rhs_iv = cur.sub(rhs_iv)
            elif op == "*":
                rhs_iv = cur.mul(rhs_iv)
            else:
                rhs_iv = TOP
        self._record(lhs, getattr(lhs, "sharc_write", None), True, idx_iv)
        self._store(lhs, rhs_iv)
        return rhs_iv

    # -- lvalue plumbing -----------------------------------------------------

    def _walk_lvalue(self, e: A.Expr) -> None:
        """Address computation only (mirrors checkelim.lvalue)."""
        cls = e.__class__
        if cls is A.Ident:
            return
        if cls is A.Unop and e.op == "*":
            self.eval(e.operand)
            return
        if cls is A.Member:
            if e.arrow:
                self.eval(e.obj)
            else:
                self._walk_lvalue(e.obj)
            return
        if cls is A.Index:
            if getattr(e, "sharc_on_array", False):
                self._walk_lvalue(e.arr)
            else:
                self.eval(e.arr)
            self.eval(e.idx)
            return

    def _quiet_eval(self, e) -> Interval:
        """Evaluate for the *value* only: no shared writes, no index
        records (the expression was already walked)."""
        cls = e.__class__
        if cls is A.IntLit or cls is A.CharLit:
            return const(e.value)
        if cls is A.Ident:
            if e.name in self.global_names:
                return self._shared_read(("global", e.name))
            iv = self.env.get(e.name)
            return TOP if iv is None else iv
        if cls is A.Unop and e.op == "-":
            return self._quiet_eval(e.operand).neg()
        if cls is A.Binop and e.op in ("+", "-", "*", "%"):
            a = self._quiet_eval(e.lhs)
            b = self._quiet_eval(e.rhs)
            return {"+": a.add, "-": a.sub, "*": a.mul,
                    "%": a.mod}[e.op](b)
        if cls is A.CastExpr:
            return self._quiet_eval(e.expr)
        return TOP

    def _lvalue_read(self, lhs: A.Expr) -> Interval:
        cls = lhs.__class__
        if cls is A.Ident:
            if lhs.name in self.global_names:
                return self._shared_read(("global", lhs.name))
            iv = self.env.get(lhs.name)
            return TOP if iv is None else iv
        lk = loc_key(lhs, self.global_names)
        if lk is not None:
            return self._shared_read(lk)
        return TOP

    def _store(self, lhs: A.Expr, iv: Interval) -> None:
        cls = lhs.__class__
        if cls is A.Ident:
            if lhs.name in self.global_names:
                self._shared_write(("global", lhs.name), iv)
            else:
                self.env[lhs.name] = iv
            return
        lk = loc_key(lhs, self.global_names)
        if lk is not None:
            self._shared_write(lk, iv)

    # -- calls ---------------------------------------------------------------

    def _call(self, e: A.Call) -> Interval:
        if e.callee.__class__ is not A.Ident:
            self.eval(e.callee)
            for arg in e.args:
                self.eval(arg)
            return TOP
        name = e.callee.name
        arg_ivs = [self.eval(arg) for arg in e.args]
        func = self.defined.get(name)
        # A spawned root runs in its own context.
        if func is None or name in SPAWNS:
            return TOP
        # defined function
        penv = self.param_envs.setdefault(name, {})
        for pname, iv in zip(func.param_names, arg_ivs):
            prev = penv.get(pname)
            penv[pname] = iv if prev is None else prev.join(iv)
        if self.inline and name not in self.call_stack \
                and self.depth < _INLINE_DEPTH:
            return self._inline_call(func, arg_ivs)
        return self.ret_ivs.get(name, TOP)

    def _inline_call(self, func: A.FuncDef, arg_ivs: list) -> Interval:
        saved_env = self.env
        saved_ret = self.cur_ret
        self.env = {pname: iv for pname, iv
                    in zip(func.param_names, arg_ivs)}
        self.cur_ret = None
        self.call_stack.append(func.name)
        self.depth += 1
        try:
            self.stmt(func.body)
        finally:
            self.depth -= 1
            self.call_stack.pop()
            ret = self.cur_ret
            self.env = saved_env
            self.cur_ret = saved_ret
        return ret if ret is not None else TOP

    # -- guard refinement ----------------------------------------------------

    def _refine(self, cond, truth: bool) -> None:
        """Narrow the environment by assuming ``cond`` is ``truth``.
        Handles the comparison shapes mini-C loops actually use."""
        if cond is None:
            return
        cls = cond.__class__
        if cls is A.Unop and cond.op == "!":
            self._refine(cond.operand, not truth)
            return
        if cls is not A.Binop:
            return
        op = cond.op
        if op == "&&" and truth:
            self._refine(cond.lhs, True)
            self._refine(cond.rhs, True)
            return
        if op == "||" and not truth:
            self._refine(cond.lhs, False)
            self._refine(cond.rhs, False)
            return
        if op not in ("<", ">", "<=", ">=", "==", "!="):
            return
        if not truth:
            op = {"<": ">=", ">": "<=", "<=": ">", ">=": "<",
                  "==": "!=", "!=": "=="}[op]
        self._refine_cmp(cond.lhs, op, cond.rhs)
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<=",
                   "==": "==", "!=": "!="}[op]
        self._refine_cmp(cond.rhs, flipped, cond.lhs)

    def _refine_cmp(self, lhs, op: str, rhs) -> None:
        if lhs.__class__ is not A.Ident \
                or lhs.name in self.global_names:
            return
        cur = self.env.get(lhs.name)
        if cur is None:
            cur = TOP
        bound = self._quiet_eval(rhs)
        new = None
        if op == "<" and bound.hi != D.INF:
            new = cur.below(bound.hi, strict=True)
        elif op == "<=" and bound.hi != D.INF:
            new = cur.below(bound.hi, strict=False)
        elif op == ">" and bound.lo != -D.INF:
            new = cur.above(bound.lo, strict=True)
        elif op == ">=" and bound.lo != -D.INF:
            new = cur.above(bound.lo, strict=False)
        elif op == "==":
            met = cur.meet(bound)
            new = met
        elif op == "!=":
            return
        if new is not None:
            self.env[lhs.name] = new

    # -- statements ----------------------------------------------------------

    def stmt(self, s) -> None:
        if s is None:
            return
        cls = s.__class__
        if cls is A.Compound:
            for sub in s.stmts:
                self.stmt(sub)
            return
        if cls is A.ExprStmt:
            self.eval(s.expr)
            return
        if cls is A.DeclStmt:
            for d in s.decls:
                if d.init is not None:
                    iv = self.eval(d.init)
                    self.env[d.name] = iv
            return
        if cls is A.If:
            self.eval(s.cond)
            snap = self._snap()
            self._refine(s.cond, True)
            self.stmt(s.then)
            then_snap = self._snap()
            self._restore(snap)
            self._refine(s.cond, False)
            if s.other is not None:
                self.stmt(s.other)
            self._merge_from(then_snap, self._snap())
            return
        if cls in (A.While, A.DoWhile, A.For):
            self._loop(s, cls)
            return
        if cls is A.Return:
            if s.value is not None:
                iv = self.eval(s.value)
            else:
                iv = TOP
            self.cur_ret = iv if self.cur_ret is None \
                else self.cur_ret.join(iv)
            return
        if cls is A.Break or cls is A.Continue:
            edges = self._breaks if cls is A.Break else self._continues
            if edges:
                edges[-1].append(self._snap())
                self.dead = True
            return

    # -- loops ---------------------------------------------------------------

    def _loop(self, s, cls) -> None:
        is_for = cls is A.For
        if is_for:
            if isinstance(s.init, A.DeclStmt):
                self.stmt(s.init)
            elif s.init is not None:
                self.eval(s.init)
        cond = getattr(s, "cond", None)
        # 1. value fixpoint at the loop head
        pre = self._snap()
        if cond is not None and cls is not A.DoWhile:
            self.eval(cond)
        head = dict(self.env)
        for it in range(_LOOP_ITERS):
            self.env = dict(head)
            if cond is not None:
                self._refine(cond, True)
            self._continues.append([])
            self._breaks.append([])
            self.stmt(s.body)
            for snap in self._continues.pop():
                self.env = dict(snap[0]) if self.dead \
                    else D.join_env(self.env, snap[0])
                self.dead = False
            self._breaks.pop()
            if is_for and s.step is not None:
                self.eval(s.step)
            if cond is not None:
                self.eval(cond)
            new_head = D.join_env(head, self.env)
            if it >= 1:
                new_head = D.widen_env(head, new_head)
            if D.env_equal(new_head, head):
                break
            head = new_head
        # 2. one walk of the body from the stabilised head (the
        #    iterates above may stop short of it), continue edges
        #    joined like the body's normal exit
        self._restore(pre)
        self.env = dict(head)
        if cond is not None:
            self._refine(cond, True)
        self._continues.append([])
        self._breaks.append([])
        self.stmt(s.body)
        for snap in self._continues.pop():
            self._merge_from(self._snap(), snap)
        break_snaps = self._breaks.pop()
        if is_for and s.step is not None:
            self.eval(s.step)
        if cond is not None:
            self.eval(cond)
        # 3. post-loop state: head refined by the exit condition, joined
        #    with every break edge's environment
        self.env = dict(head)
        if cond is not None:
            self._refine(cond, False)
        for snap in break_snaps:
            self.env = D.join_env(self.env, snap[0])
        self.dead = False


# -- driver ------------------------------------------------------------------

def analyze_absint(program: A.Program, seeds: SeedInfo,
                   lockset_result: LocksetResult | None = None
                   ) -> AbsintResult:
    """Runs the thread-modular interval analysis and scores the lockset
    pass's static races against it."""
    result = AbsintResult()
    funcs = program.functions()
    if not funcs:
        return result
    an = _Analyzer(program, seeds)
    result.contexts = an.contexts
    if not an.contexts:
        return result

    def analyze_context(context: str, env: InterferenceEnv) -> None:
        an.context = context
        an.inter = env
        an.inline = False
        order = an.reachable(context)
        for _ in range(_PARAM_ROUNDS):
            for name in order:
                func = an.defined[name]
                an.env = dict(an.param_envs.get(name, {})) \
                    if name != context else {}
                an.dead = False
                an.cur_ret = None
                an.stmt(func.body)
                prev = an.ret_ivs.get(name)
                cur = an.cur_ret if an.cur_ret is not None else TOP
                an.ret_ivs[name] = cur if prev is None \
                    else prev.join(cur)

    env, rounds = interference_fixpoint(
        an.contexts, analyze_context, an.initial_env())
    result.rounds = rounds
    result.interference = dict(env.env)

    # final walk: one inlined walk per context over the stable env,
    # keeping only its index ranges
    an.idx_ranges = {}
    env.writes = {}
    an.inline = True
    for context in an.contexts:
        an.context = context
        an.env = {}
        an.dead = False
        an.cur_ret = None
        an.call_stack = [context]
        an.stmt(an.defined[context].body)

    # refutation consumer: score the lockset pass's static races
    if lockset_result is not None:
        multi = lockset_result.multi_spawned
        for diag in lockset_result.races:
            result.verdicts.append(
                _score_race(diag, an.idx_ranges, an.contexts, multi))
    return result


def _score_race(diag, idx_ranges: dict, contexts: tuple,
                multi_spawned: frozenset) -> RaceVerdict:
    """Interval-refute a static race when every pair of contexts
    provably indexes disjoint, bounded slices of the location."""
    key = getattr(diag, "race_key_tuple", None)
    text = diag.message_key.split("@", 1)[0]
    line = int(diag.message_key.rsplit("@", 1)[1])
    if key is None:
        if "." in text:
            sname, fname = text.split(".", 1)
            key = ("field", sname, fname)
        else:
            key = ("global", text)
    per_ctx: dict = {}
    for ctx in contexts:
        w = idx_ranges.get((ctx, key, "w"))
        r = idx_ranges.get((ctx, key, "r"))
        if w is None and r is None:
            continue
        per_ctx[ctx] = (w, r)
    verdict = RaceVerdict(key, line, refuted=False)
    touching = sorted(per_ctx)
    if len(touching) < 2:
        return verdict
    spans = {}
    for ctx, (w, r) in per_ctx.items():
        span = w if r is None else (r if w is None else w.join(r))
        if not span.is_bounded:
            return verdict
        spans[ctx] = span
        if ctx in multi_spawned and w is not None:
            # two instances of the same root share a context: their
            # intervals cannot be told apart, so never refute
            return verdict
    for i, c1 in enumerate(touching):
        w1 = per_ctx[c1][0]
        for c2 in touching[i + 1:]:
            w2 = per_ctx[c2][0]
            if w1 is not None and not w1.disjoint(spans[c2]):
                return verdict
            if w2 is not None and not w2.disjoint(spans[c1]):
                return verdict
    verdict.refuted = True
    verdict.witness = {ctx: D.encode(span)
                       for ctx, span in sorted(spans.items())}
    return verdict
