"""Timing spans around rmep's layers, installed from outside the program.

The traced run replaces module attributes that rmep looks up at call time,
such as `rmep.mep.gep` or `rmep.tsvd._best_vector_for`, with wrappers that
record a span (name, start, end, parent) and put the originals back when it
ends.  Spans stay in memory until the run writes them.  A wrapped name that
no longer exists is reported as absent; its metrics then read 0.

Spans nest per thread.  A span opened by a worker thread with no open span
of its own (a `bench-random` trial in the CLI's thread pool) takes as parent
the outermost span open in the main thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

MIB = 2**20

# (module, attribute, span name).  The same span name on several modules
# counts one layer however its callers reach it.
TARGETS = (
    ("rmep.cli", "main", "cli.main"),
    ("rmep.cli", "_bench_trial", "cli._bench_trial"),
    ("rmep.spectral", "discretize", "spectral.discretize"),
    ("rmep.tsvd", "solve_complete", "tsvd.solve_complete"),
    ("rmep.tsvd", "truncate_blocks", "tsvd.truncate_blocks"),
    ("rmep.tsvd", "_best_vector_for", "tsvd._best_vector_for"),
    ("rmep.tsvd", "normalized_residual", "tsvd.normalized_residual"),
    ("rmep.tsvd", "solve_mep", "mep.solve_mep"),
    ("rmep.tsvd", "svd", "linalg.svd"),
    ("rmep.mep", "solve_mep", "mep.solve_mep"),
    ("rmep.mep", "operator_determinants", "mep.operator_determinants"),
    ("rmep.mep", "solve_from_determinants", "mep.solve_from_determinants"),
    ("rmep.mep", "_pick_mass", "mep._pick_mass"),
    ("rmep.mep", "gep", "mep.gep"),
    ("rmep.mep", "extract_factors", "mep.extract_factors"),
    ("rmep.mep", "svd", "linalg.svd"),
    ("rmep.alternating", "solve_one", "alternating.solve_one"),
    ("rmep.alternating", "_vector_step", "alternating._vector_step"),
    ("rmep.alternating", "build_gram", "alternating.build_gram"),
    ("rmep.alternating", "best_value", "alternating.best_value"),
    ("rmep.alternating", "kkt_residual", "alternating.kkt_residual"),
    ("rmep.alternating", "svd", "linalg.svd"),
)

# Facts read off a call's arguments and result, stored with its span.
NOTES = {
    # the mass matrix is "shifted" when it is not D_0 itself
    "mep._pick_mass": lambda args, result: result[0] is not args[0].matrices[0],
    "mep.operator_determinants": lambda args, result: sum(m.nbytes for m in result.matrices) / MIB,
    # (rows of the tallest block, sweeps)
    "alternating.solve_one": lambda args, result: (max(b.shape[0] for b in args[0].blocks), result[2].iterations),
}

# alternating-mix's small problems have at most this many rows.
SMALL_MAX_ROWS = 60

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.trial_ms": "ms",
    "cli.pool_overlap": "ratio",
    "spectral.discretize_s": "s",
    "tsvd.truncate_s": "s",
    "tsvd.refit_s": "s",
    "tsvd.refit_calls": "count",
    "mep.determinants_s": "s",
    "mep.mass_s": "s",
    "mep.shifted_mass": "count",
    "mep.eigensolve_s": "s",
    "mep.rayleigh_s": "s",
    "mep.factors_s": "s",
    "mep.lifted_mb": "MB",
    "linalg.svd_s": "s",
    "linalg.svd_calls": "count",
    "alternating.sweeps_small": "count",
    "alternating.sweeps_large": "count",
    "alternating.sweep_ms_small": "ms",
    "alternating.sweep_ms_large": "ms",
    "alternating.vector_step_s": "s",
    "alternating.kkt_s": "s",
    "alternating.gram_s": "s",
}

# The stages that together make up one `ode-sl` operation.
SL_STAGES = (
    "cli.self_s",
    "spectral.discretize_s",
    "tsvd.truncate_s",
    "mep.determinants_s",
    "mep.mass_s",
    "mep.eigensolve_s",
    "mep.rayleigh_s",
    "mep.factors_s",
    "tsvd.refit_s",
)


class Tracer:
    """Span recorder.  `install` wraps TARGETS; `uninstall` restores them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, note]
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._originals = []

    def install(self, targets=TARGETS):
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        note = NOTES.get(name)
        main_thread = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, None, stack[-1] if stack else self._root, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            is_root = not stack and threading.current_thread() is main_thread
            if is_root:
                self._root = index
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def write(self, path):
        """Spans as JSON rows [name, start_s, end_s, parent, note], times
        relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p, note] for n, s, e, p, note in self.spans]
        path.write_text(json.dumps({"absent": self.absent, "spans": rows}), encoding="utf-8")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for s, e in sorted(children.get(index, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer figures of a traced run of `rounds` rounds.

    Times and counts are per round; cli.trial_ms is the median trial span,
    cli.pool_overlap the summed trial spans over the summed `cli.main` spans,
    mep.lifted_mb the largest D_0..D_k set built, and the alternating sweep
    figures are split by problem size.
    """
    selfs = self_times(spans)
    dur = defaultdict(list)
    self_sum = defaultdict(float)
    notes = defaultdict(list)
    names = [s[0] for s in spans]
    for (name, start, end, parent, note), own in zip(spans, selfs):
        dur[name].append(end - start)
        self_sum[name] += own
        if note is not None:
            notes[name].append(note)

    def total(*span_names):
        return sum(sum(dur[n]) for n in span_names) / rounds

    def count(name):
        return len(dur[name]) / rounds

    # Gram builds inside kkt_residual belong to the KKT check, not the value step.
    gram = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name in ("alternating.build_gram", "alternating.best_value")
        and (parent is None or names[parent] != "alternating.kkt_residual")
    )
    classes = {"small": [0, 0.0], "large": [0, 0.0]}  # sweeps, seconds
    for name, start, end, _, note in spans:
        if name == "alternating.solve_one" and note is not None:
            rows, sweeps = note
            cls = classes["small" if rows <= SMALL_MAX_ROWS else "large"]
            cls[0] += sweeps
            cls[1] += end - start
    trials = dur["cli._bench_trial"]
    main_time = sum(dur["cli.main"])
    values = {
        "cli.self_s": self_sum["cli.main"] / rounds,
        "cli.trial_ms": 1e3 * statistics.median(trials) if trials else 0.0,
        "cli.pool_overlap": sum(trials) / main_time if trials and main_time > 0 else 0.0,
        "spectral.discretize_s": total("spectral.discretize"),
        "tsvd.truncate_s": total("tsvd.truncate_blocks"),
        "tsvd.refit_s": total("tsvd._best_vector_for", "tsvd.normalized_residual"),
        "tsvd.refit_calls": count("tsvd._best_vector_for"),
        "mep.determinants_s": total("mep.operator_determinants"),
        "mep.mass_s": total("mep._pick_mass"),
        "mep.shifted_mass": sum(notes["mep._pick_mass"]) / rounds,
        "mep.eigensolve_s": total("mep.gep"),
        "mep.rayleigh_s": self_sum["mep.solve_from_determinants"] / rounds,
        "mep.factors_s": total("mep.extract_factors"),
        "mep.lifted_mb": max(notes["mep.operator_determinants"], default=0.0),
        "linalg.svd_s": total("linalg.svd"),
        "linalg.svd_calls": count("linalg.svd"),
        **{f"alternating.sweeps_{c}": sweeps / rounds for c, (sweeps, _) in classes.items()},
        **{f"alternating.sweep_ms_{c}": 1e3 * sec / sweeps if sweeps else 0.0 for c, (sweeps, sec) in classes.items()},
        "alternating.vector_step_s": total("alternating._vector_step"),
        "alternating.kkt_s": total("alternating.kkt_residual"),
        "alternating.gram_s": gram / rounds,
    }
    bases = {
        "cli.trial_ms": f"{len(trials)} trials",
        "cli.pool_overlap": f"{len(trials)} trials",
        "tsvd.refit_calls": f"{count('tsvd.normalized_residual'):g} finite tuples",
        "mep.shifted_mass": f"{count('mep._pick_mass'):g} solves",
        "alternating.sweeps_small": f"per pass, up to {SMALL_MAX_ROWS} rows",
        "alternating.sweeps_large": "per pass",
    }
    return {name: (values[name], unit, bases.get(name, "")) for name, unit in LAYER_METRICS.items()}


def format_table(metrics: dict) -> str:
    lines = [f"{'metric':28s} {'value':>14s}  unit   base (values are per round)"]
    for name, (value, unit, base) in metrics.items():
        lines.append(f"{name:28s} {value:14.6g}  {unit:6s} {base}")
    return "\n".join(lines)
