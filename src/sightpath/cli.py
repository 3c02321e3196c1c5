"""Command-line front end.

Exit codes: 0 on success (and a true decision), 1 on domain failures,
mismatches or a false decision, 2 on unreadable or unparsable input, on an
unwritable ``--out`` path and on a refused setting: an unknown option, a
negative ``--cap``, ``--trials`` or ``--count``, or a bad generator or
approximation setting.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import io
from .approx import ApproxConfig, ApproxSolver, agreement_report
from .exact import DecisionQuery, ExactSolver
from .generate import DEFAULT_PALETTE, GeneratorConfig, generate_instance
from .model import (
    EMPTY_KNOWLEDGE,
    Instance,
    Knowledge,
    ModelError,
    format_number,
    format_pair,
)
from .oracle import (
    WORLD_CAP,
    ScenarioCheck,
    is_gap_instance,
    oracle_check,
    sight_blind_policy,
)
from .sim import run_trials

OK, DOMAIN_FAILURE, BAD_INPUT = 0, 1, 2
_APPROX_MEASURED = (  # the README's findings, on the approx bench configuration
    "Above threshold 0 this is a heuristic: on 2000 generated instances, threshold 1 and 64 "
    "entries lost success against the exact policy on 363, did worse than sight-blind on 238, "
    "lost 0.0386 on average (1.7x sight-blind's 0.0227), and overestimated on 75 of 300."
)


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _reported(prefix: str, *types: type[Exception], code: int = BAD_INPUT):
    """Report an exception of one of ``types`` raised in the block as
    ``prefix`` and its text, exiting with ``code``."""
    try:
        yield
    except types as exc:
        raise _CliError(prefix + str(exc), code) from None


def _read(load, path: str, *args):
    """``load(path, *args)``, with an unreadable or unparsable file reported as bad input."""
    with (
        _reported(f"cannot read {path}: ", OSError),
        _reported(f"cannot parse {path}: ", io.FileFormatError),
    ):
        return load(path, *args)


def _checked_instance(path: str) -> Instance:
    instance = _read(io.load_instance, path)
    report = instance.validation
    if not report.ok:
        lines = "\n".join(f"violation {v}" for v in report.violations)
        raise _CliError(f"{path} is not a valid instance:\n{lines}", DOMAIN_FAILURE)
    return instance


def _load_knowledge(path: Optional[str], instance: Instance) -> Knowledge:
    if path is None:
        return EMPTY_KNOWLEDGE
    return _read(io.load_scenario, path, instance)


def _format_move(move) -> str:
    return format_pair(move) if move is not None else "halt"


def _check_doc(check: ScenarioCheck) -> dict:
    """One scenario of ``oracle-check --json``: fractions as strings, a halt as null."""
    return {
        "knowledge": io.knowledge_to_dict(check.knowledge),
        "weight": format_number(check.weight),
        "solver_value": format_number(check.solver_value),
        "oracle_value": format_number(check.oracle_value),
        "solver_move": None if check.solver_move is None else format_pair(check.solver_move),
        "oracle_move": None if check.oracle_move is None else format_pair(check.oracle_move),
        "match": check.match,
    }


# -- commands ----------------------------------------------------------------


def _cmd_validate(args) -> int:
    instance = _read(io.load_instance, args.instance)
    report = instance.validation
    if report.ok:
        print("ok")
        return OK
    for violation in report.violations:
        print(f"violation {violation}")
    print(f"{len(report.violations)} violation(s)")
    return DOMAIN_FAILURE


def _query(args, solver_for):
    """Load a decision command's query and decide it with ``solver_for(instance)``.
    Returns the solver, the query and the decision."""
    instance = _checked_instance(args.instance)
    knowledge = _load_knowledge(args.scenario, instance)
    with _reported("", io.FileFormatError):
        edge = io.parse_edge_key(args.edge)
    solver = solver_for(instance)
    with _reported("", ValueError, code=DOMAIN_FAILURE):
        query = DecisionQuery(instance, edge, knowledge)
    return solver, query, solver.decide(query)


def _print_decision(solver, query, taken: bool, success) -> None:
    """The lines ``decide`` and ``approx`` share: the decision, ``success`` and
    the edge the walker takes."""
    print(f"decision: {'true' if taken else 'false'}")
    print(f"success: {io.format_valuation(success)}")
    print(f"selected: {_format_move(solver.next_move(query.instance.start, query.knowledge))}")


def _cmd_decide(args) -> int:
    solver, query, taken = _query(args, lambda instance: ExactSolver(instance, mode=args.mode))
    _print_decision(solver, query, taken, solver.success(query.edge, query.knowledge))
    return OK if taken else DOMAIN_FAILURE


def _cmd_oracle_check(args) -> int:
    if args.cap < 0:
        raise _CliError(
            f"bad enumeration cap: --cap must not be negative, got {args.cap}", BAD_INPUT
        )
    instance = _checked_instance(args.instance)
    checks = oracle_check(instance, cap=args.cap)
    all_match = all(check.match for check in checks)
    watched = instance.numbering.sight[instance._check_vertex(instance.start)].bit_count()
    skipped = (1 << watched) - len(checks)
    if args.json:
        scenarios = [_check_doc(check) for check in checks]
        print(json.dumps({"scenarios": scenarios, "checked": len(checks), "skipped": skipped}))
        return OK if all_match else DOMAIN_FAILURE
    for check in checks:
        verdict = "ok" if check.match else "MISMATCH"
        print(
            f"scenario {check.knowledge!r}: solver {io.format_valuation(check.solver_value)}"
            f" / oracle {io.format_valuation(check.oracle_value)},"
            f" move {_format_move(check.solver_move)} / {_format_move(check.oracle_move)}"
            f" : {verdict}"
        )
    summary = "all scenarios agree" if all_match else "solver and oracle disagree"
    print(f"{summary} ({len(checks)} checked, {skipped} impossible skipped)")
    return OK if all_match else DOMAIN_FAILURE


def _cmd_mc(args) -> int:
    if args.trials < 0:
        raise _CliError(f"--trials must not be negative, got {args.trials}", BAD_INPUT)
    instance = _checked_instance(args.instance)
    batch = run_trials(instance, args.trials, args.seed)
    if args.json:
        print(json.dumps(asdict(batch)))
        return OK
    print(
        f"trials={batch.n} successes={batch.successes}"
        f" rate={batch.rate:.12g} stderr={batch.stderr:.12g} seed={batch.seed}"
    )
    if not batch.rate_defined:
        print("rate undefined: no trials were run")
    return OK


def _generator_config(args) -> GeneratorConfig:
    with _reported("bad generator configuration: ", ValueError, TypeError, ZeroDivisionError):
        if args.count < 0:
            raise ValueError(f"--count must not be negative, got {args.count}")
        palette = tuple(part.strip() for part in args.palette.split(","))
        return GeneratorConfig(
            n_min=args.n_min,
            n_max=args.n_max,
            edge_density=args.edge_density,
            sight_density=args.sight_density,
            p_palette=palette,
            seed=args.seed,
            max_edges=args.max_edges,
            max_sights=args.max_sights,
            neighbor_sight_only=args.neighbor_sight,
        )


def _output_directory(out: Optional[str]) -> Optional[Path]:
    """The ``--out`` directory, created if missing; None when unset."""
    if out is None:
        return None
    with _reported(f"cannot write {out}: ", OSError):
        Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _write_instances(instances: Iterable[Instance], directory: Optional[Path], label: str) -> None:
    if directory is None:
        for instance in instances:
            sys.stdout.write(io.serialize_instance(instance))
        return
    for i, instance in enumerate(instances):
        path = directory / f"{label}_{i:03d}.json"
        with _reported(f"cannot write {path}: ", OSError):
            io.save_instance(instance, path)
        print(path)


def _cmd_gen(args) -> int:
    config = _generator_config(args)
    directory = _output_directory(args.out)
    # each instance is written as it is drawn, so none is held past its file
    drawn = (generate_instance(config, index) for index in range(args.count))
    _write_instances(drawn, directory, "instance")
    return OK


def _cmd_gap_search(args) -> int:
    config = _generator_config(args)
    directory = _output_directory(args.out)
    gaps = []
    for index in range(args.count):
        instance = generate_instance(config, index)
        if is_gap_instance(instance):
            gaps.append(instance)
            blind = sight_blind_policy(instance)(instance.start, EMPTY_KNOWLEDGE)
            print(
                f"gap at index {index}: blind first move {_format_move(blind)}"
                f" differs from the sighted solver"
            )
    if directory is not None:
        _write_instances(gaps, directory, "gap")
    print(f"found {len(gaps)} gap instance(s) out of {args.count}")
    return OK


def _approx_config(args) -> ApproxConfig:
    with _reported("bad approximation settings: ", ValueError):
        return ApproxConfig(similarity_threshold=args.threshold, max_entries=args.cache_size)


def _cmd_approx(args) -> int:
    config = _approx_config(args)
    solver, query, taken = _query(
        args, lambda instance: ApproxSolver(instance, config, mode=args.mode)
    )
    value, report = solver.approx_success(query.edge, query.knowledge)
    _print_decision(solver, query, taken, value)
    print(
        f"cache: exact_hits={report.exact_hits} similar_hits={report.similar_hits}"
        f" misses={report.misses} evictions={report.evictions}"
    )
    return OK if taken else DOMAIN_FAILURE


def _cmd_approx_compare(args) -> int:
    config = _approx_config(args)
    directory = Path(args.instances)
    if not directory.is_dir():
        raise _CliError(f"{args.instances} is not a directory", BAD_INPUT)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise _CliError(f"no *.json instances under {args.instances}", BAD_INPUT)
    instances = [_checked_instance(str(path)) for path in paths]
    rows = agreement_report(instances, config, mode=args.mode)
    matches = 0
    print("instance\tmatch\tvalue_gap\texact_hits\tsimilar_hits\tmisses\tevictions")
    for path, row in zip(paths, rows):
        matches += row.decision_match
        print(
            f"{path.name}\t{'yes' if row.decision_match else 'no'}"
            f"\t{io.format_valuation(row.value_gap)}"
            f"\t{row.report.exact_hits}\t{row.report.similar_hits}"
            f"\t{row.report.misses}\t{row.report.evictions}"
        )
    print(f"match rate: {matches}/{len(rows)}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sightpath",
        description="Solve, verify and simulate safest-path decisions on "
        "uncertain DAGs with line-of-sight information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument("--mode", choices=("rational", "float"), default="rational")

    def add_query(p):
        p.add_argument("instance")
        p.add_argument("--scenario", help="knowledge file covering the start's sight")
        p.add_argument("--edge", required=True, help="candidate first edge, e.g. 1-2")

    def add_cache(p):
        p.add_argument("--threshold", type=int, default=ApproxConfig.similarity_threshold)
        p.add_argument("--cache-size", type=int, default=ApproxConfig.max_entries)

    p = sub.add_parser("validate", help="check an instance file's structure")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("decide", help="will the walker's first step be this edge?")
    add_query(p)
    add_mode(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("oracle-check", help="compare solver and brute-force oracle")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=WORLD_CAP)
    p.add_argument("--json", action="store_true", help="print the checks as one JSON object")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("mc", help="Monte Carlo estimate of the policy's success")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="print the batch as one JSON object")
    p.set_defaults(func=_cmd_mc)

    def add_generator(p):
        p.add_argument("--seed", type=int, default=GeneratorConfig.seed)
        p.add_argument("--count", type=int, default=1)
        p.add_argument("--n-min", type=int, default=GeneratorConfig.n_min)
        p.add_argument("--n-max", type=int, default=GeneratorConfig.n_max)
        p.add_argument("--edge-density", type=float, default=GeneratorConfig.edge_density)
        p.add_argument("--sight-density", type=float, default=GeneratorConfig.sight_density)
        p.add_argument("--palette", default=",".join(DEFAULT_PALETTE),
                       help="comma-separated failure probabilities")
        p.add_argument("--max-edges", type=int, default=GeneratorConfig.max_edges)
        p.add_argument("--max-sights", type=int, default=GeneratorConfig.max_sights)
        p.add_argument("--neighbor-sight", action="store_true",
                       help="only generate sight lines from an edge's own tail")
        p.add_argument("--out", help="directory to write instance files to")

    p = sub.add_parser("gen", help="generate seeded random instances")
    add_generator(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "gap-search", help="find instances where sight changes the first move",
        description="Instances of n >= 20 can take minutes and gigabytes each until the exact "
        "solver has the memory budget of ROADMAP item 2.",
    )
    add_generator(p)
    p.set_defaults(func=_cmd_gap_search)

    p = sub.add_parser("approx", help="decide using the bounded similarity cache",
                       description=_APPROX_MEASURED)
    add_query(p)
    add_cache(p)
    add_mode(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("approx-compare", help="approximate vs exact over an instance directory",
                       description=_APPROX_MEASURED)
    p.add_argument("instances", help="directory of *.json instance files")
    add_cache(p)
    add_mode(p)
    p.set_defaults(func=_cmd_approx_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand's ``_cmd_*``
    handler is bound when the parser is built, so a handler replaced later
    would not be called; nothing in tests/ or bench/ replaces one."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ModelError as exc:
        print(str(exc), file=sys.stderr)
        return DOMAIN_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
