"""Output checks for every benchmark operation.

An operation is one grid cell of ``run_experiment`` or one time-to-gap run.
The invariants below hold on any seed; for seeds with a stored expectation
(``expect.json``) the winners, the diverged set, k* and the final objective
values must match it as well.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from vrgrad import expected_grad_evals

EXPECT_PATH = Path(__file__).with_name("expect.json")
# ROADMAP: fast paths must match the plain path to 1e-10 relative.
FVAL_RTOL = 1e-10
GAP_FLOOR = 1e-12   # gaps may dip below 0 by rounding, never below -GAP_FLOOR*|f*|


def cell_key(method: str, lam: float, step: float, seed: int) -> str:
    return f"{method}|{lam!r}|{step!r}|{seed}"


def load_expectation(workload: str, seed: int) -> dict | None:
    if not EXPECT_PATH.exists():
        return None
    return json.loads(EXPECT_PATH.read_text()).get(workload, {}).get(str(seed))


def _same_record(a, b) -> bool:
    return all(x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
               for x, y in zip(vars(a).values(), vars(b).values()))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FVAL_RTOL * max(abs(a), abs(b))


def gap_floor_ok(records, f_star: float) -> bool:
    return all(rec.gap >= -GAP_FLOOR * abs(f_star) for rec in records)


def check_grid(table, reloaded, spec, n: int, m: int, expect: dict | None) -> dict:
    """Problems per grid cell, keyed by :func:`cell_key`; an empty dict is a pass.

    ``reloaded`` is ``load_table`` of what ``emit_csv`` wrote for ``table``.
    """
    problems: dict[str, list[str]] = {}

    def flag(key, message):
        problems.setdefault(key, []).append(message)

    rows = {cell_key(r.method, r.lam, r.step_param, r.seed): r for r in table.rows}
    back = {cell_key(r.method, r.lam, r.step_param, r.seed): r for r in reloaded.rows}
    for method in spec.methods:
        for lam in spec.lambdas:
            for step in spec.grid:
                for seed in spec.seeds:
                    key = cell_key(method, float(lam), float(step), seed)
                    if key not in rows:
                        flag(key, "cell missing from the result table")
    for key, row in rows.items():
        f_star = table.references[row.lam]
        if not row.diverged:
            want = expected_grad_evals(row.method, n, m, spec.epochs)
            if [rec.grad_evals for rec in row.records] != want:
                flag(key, "grad_evals differ from expected_grad_evals")
        if not gap_floor_ok(row.records, f_star):
            flag(key, "gap below -1e-12*|f*|")
        other = back.get(key)
        if (other is None or other.diverged != row.diverged
                or len(other.records) != len(row.records)
                or not all(map(_same_record, row.records, other.records))):
            flag(key, "emit_csv/load_table round trip differs")
    if reloaded.winners != table.winners or reloaded.references != table.references:
        for key in rows:
            flag(key, "winners or references differ after the round trip")

    for (method, lam), step in table.winners.items():
        by_step: dict[float, list[float]] = {}
        for row in table.cell(method, lam):
            by_step.setdefault(row.step_param, []).append(row.final_gap())
        means = {s: sum(g) / len(g) for s, g in by_step.items()}
        if means[step] > min(means.values()):
            for row in table.cell(method, lam):
                flag(cell_key(row.method, row.lam, row.step_param, row.seed),
                     "winner is not the argmin of its cell")

    if expect is not None:
        got_winners = {f"{m_}|{lam!r}": step for (m_, lam), step in table.winners.items()}
        for cell, step in expect["winners"].items():
            if got_winners.get(cell) != step:
                method, lam = cell.split("|")
                for row in table.cell(method, float(lam)):
                    flag(cell_key(row.method, row.lam, row.step_param, row.seed),
                         f"winner {got_winners.get(cell)!r} != expected {step!r}")
        diverged = {key for key, row in rows.items() if row.diverged}
        for key in diverged ^ set(expect["diverged"]):
            flag(key, "diverged set differs from the expectation")
        for key, fval in expect["final_fval"].items():
            row = rows.get(key)
            if row is not None and row.records and not _close(row.records[-1].fval, fval):
                flag(key, f"final fval {row.records[-1].fval!r} != expected {fval!r}")
    return problems


def check_ttg(method: str, records, k_star: int, target: float, calibration,
              f_star: float, expect: dict | None) -> list[str]:
    """Problems with one timed ttg run of ``k_star`` epochs; empty is a pass."""
    problems = []
    if len(records) != k_star:
        problems.append(f"{len(records)} epochs recorded, expected k*={k_star}")
    elif records[-1].gap > target or any(r.gap <= target for r in records[:-1]):
        problems.append("target gap not first reached at k*")
    if [r.fval for r in records] != [r.fval for r in calibration[:k_star]]:
        problems.append("trajectory differs from the calibration run")
    if not gap_floor_ok(records, f_star):
        problems.append("gap below -1e-12*|f*|")
    if expect is not None and records:
        if expect["k_star"][method] != k_star:
            problems.append(f"k*={k_star} != expected {expect['k_star'][method]}")
        elif not _close(records[-1].fval, expect["ttg_fval"][method]):
            problems.append(f"final fval {records[-1].fval!r} != expected "
                            f"{expect['ttg_fval'][method]!r}")
    return problems
