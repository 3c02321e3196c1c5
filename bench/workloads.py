"""The benchmark's workloads.

Each workload builds its inputs from the seed with the program's own
generator, writes them to instance files and reads them back (the io round
trip), and then runs one kind of operation.  Each loads one layer and leaves
the others nearly idle.  Op ``i`` uses instance ``i % pool``, so a fast
program cycles through the same inputs instead of reaching new ones.

The generator streams are filtered or capped where the raw stream's cost is
so heavy-tailed that two seeds would give throughputs far apart: a benchmark
run covers a few thousand instances at most, and a handful of them would
decide its result.  ``README.md`` gives the measurements behind each choice.
"""

from __future__ import annotations

import contextlib
import io as stdio
import math
import statistics
from pathlib import Path

import reference as ref

TRIALS_PER_OP = 250
APPROX_CONFIG = {"similarity_threshold": 1, "max_entries": 64}
Z_LIMIT = 4.5


class Workload:
    name = ""
    why = ""
    config: dict = {}  # GeneratorConfig fields besides the seed
    selection = "every instance of the stream"
    pool = 0  # instances built at set-up
    traced_ops = 0  # ops the traced run replays, the same on every run

    def keep(self, instance) -> bool:
        """Whether an instance of the generator stream joins the pool."""
        return True

    def setup(self, sp, seed: int, workdir: Path) -> list[str]:
        """Generate the pool and round-trip it through instance files.

        Returns the problems found (an instance the round trip changed).
        """
        self.sp, self.seed = sp, seed
        config = sp.generate.GeneratorConfig(seed=seed, **self.config)
        drawn, index = [], 0
        while len(drawn) < self.pool:
            if index > 1000 * self.pool:
                raise RuntimeError(f"{self.name}: the generator stream yields too few pool instances")
            instance = sp.generate.generate_instance(config, index)
            index += 1
            if self.keep(instance):
                drawn.append(instance)
        self.scanned = index
        self.paths = [workdir / f"{self.name}-{i:04d}.json" for i in range(len(drawn))]
        for instance, path in zip(drawn, self.paths):
            sp.io.save_instance(instance, path)
        self.instances = [sp.io.load_instance(path) for path in self.paths]
        self._expected: dict = {}
        return [
            f"io round trip changed instance {i}"
            for i, (a, b) in enumerate(zip(drawn, self.instances))
            if a != b
        ]

    def op(self, i: int):
        raise NotImplementedError

    def reference(self, k: int) -> tuple:
        """(expected answer, exact memo entries) for pool instance ``k``."""
        raise NotImplementedError

    def expected(self, i: int):
        k = i % self.pool
        if k not in self._expected:
            self._expected[k] = self.reference(k)
        return self._expected[k][0]

    def check(self, i: int, output) -> str | None:
        """None when op ``i``'s output is correct, else what is wrong."""
        raise NotImplementedError

    def finish(self, outputs: dict) -> list[str]:
        """Run-level checks over every op's output (op index -> output)."""
        return []

    def shape(self) -> dict:
        edges = [len(inst.edges) for inst in self.instances]
        sights = [len(inst.sights) for inst in self.instances]
        return {
            "instances": len(self.instances),
            "stream_scanned": self.scanned,
            "edges_median": statistics.median(edges),
            "edges_max": max(edges),
            "sights_median": statistics.median(sights),
            "sights_max": max(sights),
            "max_memo_entries": max((memo for _, memo in self._expected.values()), default=0),
        }


class Solve(Workload):
    name = "solve"
    why = "exact rational recursion on n=16 instances: Knowledge building, memo keys, reveal enumeration, Fraction arithmetic"
    config = {"n_min": 16, "n_max": 16, "edge_density": 0.5, "sight_density": 0.1, "max_sights": 12}
    pool = 2000
    traced_ops = 150

    def op(self, i: int):
        sp = self.sp
        instance = self.instances[i % self.pool]
        solver = sp.exact.ExactSolver(instance)
        return [
            (solver.next_move(instance.start, k), solver.root_value(k))
            for k, weight in sp.oracle.initial_scenarios(instance)
            if weight != 0
        ]

    def reference(self, k: int) -> tuple:
        return ref.solve_answers(ref.Graph(self.instances[k]))

    def check(self, i: int, output) -> str | None:
        want = self.expected(i)
        if output != want:
            return f"instance {i % self.pool}: got {output}, want {want}"
        return None


class Verify(Workload):
    name = "verify"
    why = "oracle-check through the CLI on 15-edge files: world filtering over 2^15 worlds dominates, plus cli and io"
    config = {
        "n_min": 7, "n_max": 7, "edge_density": 0.8, "sight_density": 0.2,
        "max_edges": 15, "max_sights": 6,
    }
    selection = "instances with 15 edges and one uncertain edge seen from the start"
    pool = 256
    traced_ops = 40

    def keep(self, instance) -> bool:
        # 15 edges (2^15 worlds) and two possible first-step scenarios: the
        # oracle's cost grows with both, and mixing sizes makes it heavy-tailed
        p_fail = {(e.tail, e.head): e.p_fail for e in instance.edges}
        start = instance.task.start
        uncertain = [s for s in instance.sights if s.observer == start and 0 < p_fail[s.edge] < 1]
        return len(instance.edges) == 15 and len(uncertain) == 1

    def op(self, i: int):
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sp.cli.main(["oracle-check", str(self.paths[i % self.pool])])
        return code, out.getvalue(), err.getvalue()

    def reference(self, k: int) -> tuple:
        graph = ref.Graph(self.instances[k])
        answers, memo = ref.solve_answers(graph)
        return (len(answers), graph.zero_scenarios()), memo

    def check(self, i: int, output) -> str | None:
        code, text, errors = output
        checked, skipped = self.expected(i)
        lines = text.splitlines()
        summary = f"all scenarios agree ({checked} checked, {skipped} impossible skipped)"
        if code != 0:
            return f"instance {i % self.pool}: exit code {code}: {errors.strip()}"
        scenarios = lines[:-1]
        if (
            len(scenarios) != checked
            or not all(line.startswith("scenario ") and line.endswith(": ok") for line in scenarios)
            or lines[-1:] != [summary]
        ):
            return f"instance {i % self.pool}: output {text!r}"
        return None


class MonteCarlo(Workload):
    name = "mc"
    why = "Monte Carlo batches of 250 trials: per-trial Random, world draws, the simulate_policy walk, observe, next_move lookups"
    config = {"n_min": 10, "n_max": 10, "edge_density": 0.5, "sight_density": 0.15}
    selection = "instances with at least 15 edges and 10 sight lines"
    pool = 1024
    traced_ops = 64

    def keep(self, instance) -> bool:
        return len(instance.edges) >= 15 and len(instance.sights) >= 10

    def op(self, i: int):
        sp = self.sp
        instance = self.instances[i % self.pool]
        batch = sp.sim.run_trials(
            instance, TRIALS_PER_OP, ref.derive_seed(self.seed, i), sp.exact.ExactSolver(instance)
        )
        return batch.n, batch.successes

    def reference(self, k: int) -> tuple:
        trials = ref.Trials(ref.Graph(self.instances[k]))
        return trials, trials.memo_entries

    def check(self, i: int, output) -> str | None:
        want = (TRIALS_PER_OP, self.expected(i).successes(TRIALS_PER_OP, ref.derive_seed(self.seed, i)))
        if output != want:
            return f"op {i}: (trials, successes) {output}, want {want}"
        return None

    def finish(self, outputs: dict) -> list[str]:
        # the success rate over all trials must lie within Z_LIMIT standard
        # errors of the exact policy values; pooled, the normal approximation
        # holds even where a value is close to 0 or 1
        trials = wins = expected = variance = 0
        for i, (n, successes) in outputs.items():
            value = float(self.expected(i).value)
            trials += n
            wins += successes
            expected += n * value
            variance += n * value * (1 - value)
        if abs(wins - expected) > Z_LIMIT * math.sqrt(variance):
            return [f"{wins} successes in {trials} trials, exact policy values expect {expected:.1f}"]
        return []


class Approx(Workload):
    name = "approx"
    why = "float-mode approximate solver vs exact: similarity scans, LRU cache reuse and recomputation"
    config = {"n_min": 12, "n_max": 12, "edge_density": 0.5, "sight_density": 0.2, "max_sights": 10}
    pool = 2000
    traced_ops = 300

    def op(self, i: int):
        approx = self.sp.approx
        [row] = approx.agreement_report(
            [self.instances[i % self.pool]], approx.ApproxConfig(**APPROX_CONFIG), mode="float"
        )
        r = row.report
        return row.decision_match, row.value_gap, (r.exact_hits, r.similar_hits, r.misses, r.evictions)

    def reference(self, k: int) -> tuple:
        match, gap, counters, memo = ref.agreement(
            ref.Graph(self.instances[k]),
            APPROX_CONFIG["similarity_threshold"],
            APPROX_CONFIG["max_entries"],
        )
        return (match, gap, counters), memo

    def check(self, i: int, output) -> str | None:
        match, gap, counters = self.expected(i)
        if output[0] != match or output[2] != counters or abs(output[1] - gap) > ref.FLOAT_TOL:
            return f"instance {i % self.pool}: row {output}, want {(match, gap, counters)}"
        return None


WORKLOADS = {w.name: w for w in (Solve, Verify, MonteCarlo, Approx)}
