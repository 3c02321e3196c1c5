"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces the public entry points of each sightpath module
with timing wrappers, patching the name that each caller looks up (for example
``sightpath.sim.simulate_policy``, which ``run_trials`` calls), and restores
them on exit.  Every wrapped call becomes a span: name, start, end, parent span
and op id, kept in memory and written out at the end.  A layer's self time is
its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("model.knowledge_built", "count", "lower"),
    ("model.knowledge_s", "s", "lower"),
    ("model.observe_calls", "count", "lower"),
    ("model.observe_s", "s", "lower"),
    ("exact.self_s", "s", "lower"),
    ("exact.memo_entries", "count", "lower"),
    ("exact.memo_hits", "count", "higher"),
    ("exact.memo_hit_ratio", "ratio", "higher"),
    ("exact.memo_key_calls", "count", "lower"),
    ("exact.memo_key_s", "s", "lower"),
    ("exact.reveal_calls", "count", "lower"),
    ("exact.reveal_branches", "count", "lower"),
    ("exact.reveal_zero_weight_ratio", "ratio", "lower"),
    ("exact.reveal_s", "s", "lower"),
    ("exact.next_move_calls", "count", "lower"),
    ("exact.next_move_s", "s", "lower"),
    ("oracle.candidate_values_calls", "count", "lower"),
    ("oracle.candidate_values_s", "s", "lower"),
    ("oracle.worlds_enumerated", "count", "lower"),
    ("oracle.scenarios_checked", "count", "higher"),
    ("oracle.mismatches", "count", "lower"),
    ("oracle.simulate_calls", "count", "lower"),
    ("oracle.simulate_s", "s", "lower"),
    ("sim.trials", "count", "higher"),
    ("sim.draw_self_s", "s", "lower"),
    ("approx.self_s", "s", "lower"),
    ("approx.exact_hits", "count", "higher"),
    ("approx.similar_hits", "count", "higher"),
    ("approx.misses", "count", "lower"),
    ("approx.evictions", "count", "lower"),
    ("approx.reuse_ratio", "ratio", "higher"),
    ("approx.distance_calls", "count", "lower"),
    ("approx.distance_s", "s", "lower"),
    ("approx.match_rate", "ratio", "higher"),
    ("approx.value_gap.max", "prob", "lower"),
    ("generate.instances", "count", "higher"),
    ("generate.s", "s", "lower"),
    ("io.load_calls", "count", "lower"),
    ("io.load_s", "s", "lower"),
    ("io.save_s", "s", "lower"),
    ("cli.main_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Metrics that count work.  They depend only on the inputs, so two traced
# passes over the same ops must give identical values.
COUNT_METRICS = [
    name for name, unit, _ in LAYER_METRICS
    if unit in ("count", "ratio", "prob") and name != "trace.overhead_ratio"
]


def _solver_span(sp, method):
    def name(args):
        layer = "approx" if isinstance(args[0], sp.approx.ApproxSolver) else "exact"
        return f"{layer}.{method}"

    return name


class Tracer:
    """Collects spans and counters while installed (``with tracer:``)."""

    def __init__(self, sp):
        self.sp = sp
        self.spans: list = []  # span id -> (name, start, end, parent id, op id)
        self.stack: list[int] = []
        self.op = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.gap_max = 0.0
        self.solvers: list = []
        self._saved: list = []

    # -- the entry points that are traced ----------------------------------

    def _patches(self):
        """(owner, attribute, span name, hook on the call's arguments and result)."""
        sp = self.sp
        return [
            (sp.model.Knowledge, "__init__", "model.knowledge", None),
            (sp.oracle, "observe", "model.observe", None),
            (sp.exact._SolverCore, "memo_key", "exact.memo_key", None),
            (sp.exact, "reveal_distribution", "exact.reveal", self._on_reveal),
            (sp.exact._SolverCore, "next_move", _solver_span(sp, "next_move"), None),
            (sp.exact._SolverCore, "root_value", _solver_span(sp, "root_value"), None),
            (sp.exact.ExactSolver, "__init__", None, self._on_solver),
            (sp.approx.ApproxSolver, "__init__", None, self._on_solver),
            (sp.oracle, "candidate_values", "oracle.candidate_values", self._on_candidates),
            (sp.cli, "oracle_check", "oracle.check", self._on_check),
            (sp.sim, "simulate_policy", "oracle.simulate", None),
            (sp.sim, "run_trials", "sim.run_trials", self._on_trials),
            (sp.approx, "knowledge_distance", "approx.distance", None),
            (sp.approx, "agreement_report", "approx.agreement", self._on_agreement),
            (sp.generate, "generate_instance", "generate.instance", None),
            (sp.io, "load_instance", "io.load", None),
            (sp.io, "save_instance", "io.save", None),
            (sp.cli, "main", "cli.main", None),
        ]

    def _on_reveal(self, args, result) -> None:
        self.counts["reveal_branches"] += len(result)
        self.counts["reveal_zero"] += sum(1 for _, weight in result if weight == 0)

    def _on_solver(self, args, result) -> None:
        self.solvers.append(args[0])

    def _on_candidates(self, args, result) -> None:
        # computed, not observed: a candidate_values call filters all 2^|E| worlds
        self.counts["worlds"] += 2 ** len(args[0].pairs)

    def _on_check(self, args, result) -> None:
        self.counts["scenarios"] += len(result)
        self.counts["mismatches"] += sum(1 for check in result if not check.match)

    def _on_trials(self, args, result) -> None:
        self.counts["trials"] += result.n

    def _on_agreement(self, args, result) -> None:
        for row in result:
            self.counts["rows"] += 1
            self.counts["matches"] += row.decision_match
            self.gap_max = max(self.gap_max, float(row.value_gap))

    def _wrap(self, fn, name, hook):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                hook(args, result)
                return result
            label = name if isinstance(name, str) else name(args)
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[span] = (label, start, clock(), parent, self.op)
                stack.pop()
                calls[label] += 1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attribute, name, hook in self._patches():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    # -- ops -----------------------------------------------------------------

    def run_op(self, op, index: int):
        """Run op ``index`` under a root span of its own and harvest the
        counters of the solvers it created."""
        self.op = index
        try:
            return self._wrap(op, "op", None)(index)
        finally:
            for solver in self.solvers:
                if isinstance(solver, self.sp.approx.ApproxSolver):
                    report = solver.report
                    self.counts["approx_exact_hits"] += report.exact_hits
                    self.counts["approx_similar_hits"] += report.similar_hits
                    self.counts["approx_misses"] += report.misses
                    self.counts["approx_evictions"] += report.evictions
                else:
                    stats = solver.memo_stats()
                    self.counts["memo_entries"] += stats.entries
                    self.counts["memo_hits"] += stats.hits
            self.solvers.clear()

    # -- results -------------------------------------------------------------

    def times(self) -> tuple[dict, dict]:
        """Total and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for span, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[span]
        return total, own

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines, times relative to the first span."""
        offset = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for span, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{span}\t{parent}\t{op}\t{name}\t{start - offset:.9f}\t{end - offset:.9f}\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(setup: Tracer, ops: Tracer, overhead: float) -> dict:
    """Every per-layer metric, from a traced set-up and a traced pass of ops."""
    total, own = ops.times()
    setup_total, _ = setup.times()
    calls, counts = ops.calls, ops.counts
    memo_lookups = counts["memo_entries"] + counts["memo_hits"]
    reused = counts["approx_exact_hits"] + counts["approx_similar_hits"]
    return {
        "model.knowledge_built": calls["model.knowledge"],
        "model.knowledge_s": total["model.knowledge"],
        "model.observe_calls": calls["model.observe"],
        "model.observe_s": total["model.observe"],
        "exact.self_s": own["exact.next_move"] + own["exact.root_value"],
        "exact.memo_entries": counts["memo_entries"],
        "exact.memo_hits": counts["memo_hits"],
        "exact.memo_hit_ratio": _ratio(counts["memo_hits"], memo_lookups),
        "exact.memo_key_calls": calls["exact.memo_key"],
        "exact.memo_key_s": total["exact.memo_key"],
        "exact.reveal_calls": calls["exact.reveal"],
        "exact.reveal_branches": counts["reveal_branches"],
        "exact.reveal_zero_weight_ratio": _ratio(counts["reveal_zero"], counts["reveal_branches"]),
        "exact.reveal_s": total["exact.reveal"],
        "exact.next_move_calls": calls["exact.next_move"],
        "exact.next_move_s": total["exact.next_move"],
        "oracle.candidate_values_calls": calls["oracle.candidate_values"],
        "oracle.candidate_values_s": total["oracle.candidate_values"],
        "oracle.worlds_enumerated": counts["worlds"],
        "oracle.scenarios_checked": counts["scenarios"],
        "oracle.mismatches": counts["mismatches"],
        "oracle.simulate_calls": calls["oracle.simulate"],
        "oracle.simulate_s": total["oracle.simulate"],
        "sim.trials": counts["trials"],
        "sim.draw_self_s": own["sim.run_trials"],
        "approx.self_s": own["approx.next_move"] + own["approx.root_value"],
        "approx.exact_hits": counts["approx_exact_hits"],
        "approx.similar_hits": counts["approx_similar_hits"],
        "approx.misses": counts["approx_misses"],
        "approx.evictions": counts["approx_evictions"],
        "approx.reuse_ratio": _ratio(reused, reused + counts["approx_misses"]),
        "approx.distance_calls": calls["approx.distance"],
        "approx.distance_s": total["approx.distance"],
        "approx.match_rate": _ratio(counts["matches"], counts["rows"]),
        "approx.value_gap.max": ops.gap_max,
        "generate.instances": setup.calls["generate.instance"],
        "generate.s": setup_total["generate.instance"],
        "io.load_calls": setup.calls["io.load"] + calls["io.load"],
        "io.load_s": setup_total["io.load"] + total["io.load"],
        "io.save_s": setup_total["io.save"],
        "cli.main_calls": calls["cli.main"],
        "cli.self_s": own["cli.main"],
        "trace.overhead_ratio": overhead,
    }
