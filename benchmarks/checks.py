"""Correctness checks for the benchmark's outputs (standard library only).

Every check returns a list of ``(key, failed_runs, message)`` problems, so a
mismatch is charged to the estimation runs that produced it: a sweep row
stands for ``trials`` runs, a trace record for one run.  ``key`` names the
row or record, so two problems with one row charge its runs once.

* On the default seed, outputs must match ``reference.json``: failure counts
  and per-trial selections exactly, error means, gains and bound values to a
  relative tolerance of ``RTOL``.  The tolerance leaves room for a change in
  summation order (about 1e-12) and nothing more.
* On every seed, the invariants hold: counts within ``[0, trials]``, PCEF
  equal to failures over trials, ordered intervals, the slot count of the
  design, and the overlapped PCEF below the analytical bound within a Monte
  Carlo margin of ``MARGIN_SIGMAS`` binomial standard deviations plus one
  trial.
"""

from __future__ import annotations

import json
import math

RTOL = 1e-9
MARGIN_SIGMAS = 4.0

PCEF_HEADER = ("et_db,pcef,pcef_ci_low,pcef_ci_high,pcef_low_count,"
               "relerr_mmse_all_trials,relerr_mmse_successes,"
               "relerr_final_all_trials,relerr_final_successes,"
               "trials,failures,slots")
BOUND_HEADER = "et_db,bound,per_stage,raw_total,clamped"
ERROR_COLUMNS = ("relerr_mmse_all_trials", "relerr_mmse_successes",
                 "relerr_final_all_trials", "relerr_final_successes")


def stages_of(n: int, k: int) -> int:
    stages = 0
    while n > 1:
        n //= k
        stages += 1
    return stages


def beams_per_end(k: int, variant: str) -> int:
    return k if variant == "non_overlapped" else (k + 1).bit_length() - 1


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def parse_table(text: str, header: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header {lines[:1]!r}")
    keys = header.split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(keys):
            raise ValueError(f"malformed row {line!r}")
        rows.append(dict(zip(keys, (float(c) for c in cells))))
    return rows


def failure_margin(bound: float, trials: int) -> float:
    """Largest failure count still consistent with a true PCEF of ``bound``."""
    b = min(bound, 1.0)
    return trials * b + MARGIN_SIGMAS * math.sqrt(trials * b * (1.0 - b)) + 1.0


def check_pcef_table(text: str, variant: str, n: int, k: int, grid, trials: int,
                     bound=None, reference=None) -> list:
    """One ``<variant>_pcef.csv``; ``bound`` and ``reference`` are per-row lists."""
    try:
        rows = parse_table(text, PCEF_HEADER)
    except ValueError as exc:
        return [((variant, "table"), trials * len(grid), f"{variant}: {exc}")]
    if [r["et_db"] for r in rows] != [float(x) for x in grid]:
        return [((variant, "table"), trials * len(grid), f"{variant}: energy grid differs")]
    slots = stages_of(n, k) * beams_per_end(k, variant) ** 2
    problems = []
    for i, row in enumerate(rows):
        where = f"{variant} @ {row['et_db']} dB"
        failures = row["failures"]
        why = []
        if row["trials"] != trials:
            why.append(f"trials {row['trials']} != {trials}")
        if not (0 <= failures <= trials and failures == int(failures)):
            why.append(f"failure count {failures} outside [0, {trials}]")
        if row["pcef"] != failures / trials:
            why.append("pcef is not failures / trials")
        if not 0.0 <= row["pcef_ci_low"] <= row["pcef"] <= row["pcef_ci_high"] <= 1.0:
            why.append("confidence interval out of order")
        if row["slots"] != slots:
            why.append(f"slots {row['slots']} != {slots}")
        for key in ERROR_COLUMNS:
            value = row[key]
            undefined = key.endswith("successes") and failures == trials
            if math.isnan(value) != undefined or (not undefined and not 0.0 <= value < math.inf):
                why.append(f"{key} = {value}")
        if bound is not None and variant == "overlapped" \
                and failures > failure_margin(bound[i], trials):
            why.append(f"{failures:.0f} failures exceed bound {bound[i]:.4g} "
                       f"plus margin")
        if reference is not None:
            ref = reference[i]
            if failures != ref[0]:
                why.append(f"failures {failures:.0f} != reference {ref[0]}")
            for key, expected in zip(ERROR_COLUMNS, ref[1:]):
                if not close(row[key], expected):
                    why.append(f"{key} {row[key]!r} != reference {expected!r}")
        if why:
            problems.append(((variant, i), trials, f"{where}: " + "; ".join(why)))
    return problems


def check_bound_table(text: str, grid, trials: int, reference=None):
    """``bound.csv``; returns ``(problems, bound values)``."""
    try:
        rows = parse_table(text, BOUND_HEADER)
    except ValueError as exc:
        return [(("bound", "table"), trials * len(grid), f"bound: {exc}")], None
    if [r["et_db"] for r in rows] != [float(x) for x in grid]:
        return [(("bound", "table"), trials * len(grid), "bound: energy grid differs")], None
    problems = []
    for i, row in enumerate(rows):
        why = []
        if not (0.0 <= row["per_stage"] <= row["raw_total"]
                and row["bound"] == min(row["raw_total"], 1.0)
                and row["clamped"] == float(row["raw_total"] > 1.0)):
            why.append("inconsistent bound row")
        if reference is not None and not all(
                close(row[key], expected) for key, expected in
                zip(("bound", "per_stage", "raw_total"), reference[i])):
            why.append(f"bound row differs from reference {reference[i]}")
        if why:
            problems.append((("overlapped", i), trials,
                             f"bound @ {row['et_db']} dB: " + "; ".join(why)))
    return problems, [r["bound"] for r in rows]


def check_records(records, variant: str, n: int, k: int, master_seed: int,
                  bound=None, reference=None) -> list:
    """Trace records of one variant for trials ``0..len(records)-1``."""
    stages = stages_of(n, k)
    problems = []
    wrong = 0
    for trial, rec in enumerate(records):
        why = []
        try:
            sel = rec["selections"]
            if rec["trial"] != trial or rec["seed"] != master_seed:
                why.append("trial or seed label wrong")
            if len(sel) != stages or not all(0 <= r < k and 0 <= t < k for r, t in sel):
                why.append(f"selections {sel} invalid")
            theta_hat = sum(r * k ** (stages - 1 - s) for s, (r, _) in enumerate(sel))
            phi_hat = sum(t * k ** (stages - 1 - s) for s, (_, t) in enumerate(sel))
            if (rec["theta_hat"], rec["phi_hat"]) != (theta_hat, phi_hat):
                why.append("estimated indices disagree with the selections")
            if not (0 <= rec["theta"] < n and 0 <= rec["phi"] < n):
                why.append("true indices off the grid")
            correct = rec["theta_hat"] == rec["theta"] and rec["phi_hat"] == rec["phi"]
            if rec["correct"] is not correct:
                why.append("correct flag wrong")
            wrong += not correct
            alpha, alpha_hat = complex(rec["alpha"]), complex(rec["alpha_hat"])
            if not (math.isfinite(abs(alpha)) and math.isfinite(abs(alpha_hat))):
                why.append("gain not finite")
            if reference is not None:
                ref = reference[trial]
                if [rec["theta"], rec["phi"], sel, rec["theta_hat"], rec["phi_hat"],
                        rec["correct"]] != ref[:6]:
                    why.append("selections differ from reference")
                for got, expected in ((alpha, ref[6]), (alpha_hat, ref[7])):
                    expected = complex(expected)
                    if abs(got - expected) > RTOL * max(abs(got), abs(expected)):
                        why.append(f"gain {got} != reference {expected}")
        except (KeyError, TypeError, ValueError) as exc:
            why.append(f"malformed record: {exc!r}")
        if why:
            problems.append(((variant, trial), 1, f"{variant} trial {trial}: " + "; ".join(why)))
    if bound is not None and variant == "overlapped" \
            and wrong > failure_margin(bound, len(records)):
        problems.append(((variant, "all"), len(records), f"{variant}: {wrong} failures in "
                         f"{len(records)} trials exceed bound {bound:.4g} plus margin"))
    return problems


def reference_rows(text: str) -> list:
    """Reference form of a ``<variant>_pcef.csv``: failures then error means."""
    return [[int(r["failures"])] + [r[key] for key in ERROR_COLUMNS]
            for r in parse_table(text, PCEF_HEADER)]


def reference_bound(text: str) -> list:
    return [[r["bound"], r["per_stage"], r["raw_total"]]
            for r in parse_table(text, BOUND_HEADER)]


def reference_records(records) -> list:
    return [[r["theta"], r["phi"], r["selections"], r["theta_hat"], r["phi_hat"],
             r["correct"], r["alpha"], r["alpha_hat"]] for r in records]


def charged_runs(problems, total: int) -> int:
    """Failed runs named by ``problems``, each key charged once, at most ``total``."""
    runs = {}
    for key, count, _ in problems:
        runs[key] = max(runs.get(key, 0), count)
    return min(sum(runs.values()), total)


def load_reference(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
