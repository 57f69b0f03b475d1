"""Traced, in-process run of one benchmark workload.

``run.py --trace 1`` starts this script twice in fresh interpreters, with
``PYTHONPATH`` pointing at ``src`` and the working directory set to the
run's scratch directory:

    python perfbench/trace.py replay --workload NAME --seed N --result FILE --spans FILE
    python perfbench/trace.py probe  --workload NAME --seed N --result FILE --spans FILE

``replay`` makes the workload's CLI invocations through ``cli.main`` in one
process; the calling process checks the files it writes.  ``probe`` times
each layer's public functions on fixed inputs, mostly the pair (8, 1).

Spans are recorded around every call into a public function of the
package (each module-level function whose name has no leading underscore),
also when one layer calls another, by rebinding those names for the life
of the process; ``src`` is not modified.  A span holds its name, start,
end and parent; the spans stay in memory and are written to ``--spans``
(``.npz``) when the run ends.
The result file holds the metrics and the per-name span totals.

Only primary public names are called.  A name that a later version of the
package no longer has yields an absent metric, not an error.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import statistics
import sys
import time
import traceback
from array import array
from functools import wraps

LAYERS = ("special_functions", "surface_model", "phi_system",
          "hill_spectrum", "verification", "cli")
PROBE_PAIR = (8, 1)
MESH_PROBE = (2, 1, 128)


class Tracer:
    """Spans around calls into the package's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Rebind every public function of each layer, in every module of
        the package that refers to it."""
        modules = [package]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                continue
            modules.append(mod)
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])

    # -- queries -----------------------------------------------------------

    def arrays(self):
        import numpy as np

        # copies, so that the arrays can keep growing afterwards
        return (np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end))

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        import numpy as np

        _, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def top_level(self, name: str, since: int = 0) -> list[int]:
        """Indices of spans with this name and no parent, from ``since`` on."""
        nid = self._ids.get(name)
        return [i for i in range(since, len(self.start))
                if self.name[i] == nid and self.parent[i] == -1]

    def children(self, idx: int) -> dict[str, float]:
        """Total duration of the direct children of span ``idx``, by name."""
        out: dict[str, float] = {}
        for i in range(idx + 1, len(self.start)):
            if self.start[i] >= self.end[idx]:
                break
            if self.parent[i] == idx:
                name = self.names[self.name[i]]
                out[name] = out.get(name, 0.0) + self.end[i] - self.start[i]
        return out

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def summary(self) -> dict:
        """Per span name: call count, total time and self time."""
        import numpy as np

        name, _, start, end = self.arrays()
        self_t = self.self_times()
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            if sel.any():
                out[label] = {"count": int(sel.sum()),
                              "total_s": float((end - start)[sel].sum()),
                              "self_s": float(self_t[sel].sum())}
        return out

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for label, row in self.summary().items():
            layer = label.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out

    def design_shares(self) -> tuple[float, float]:
        """Self time under ``hill_spectrum.surface_lines`` (the spectrum
        that ranks and checks share) and self time under a verification
        span but outside any surface_lines span (the checks, with every
        lower layer they call)."""
        import numpy as np

        lines_id = self._ids.get("hill_spectrum.surface_lines", -1)
        verif_ids = {nid for nid, label in enumerate(self.names)
                     if label.startswith("verification.")}
        n = len(self.start)
        under_lines = np.zeros(n, dtype=bool)
        under_verif = np.zeros(n, dtype=bool)
        for i in range(n):   # a parent always precedes its children
            nid, parent = self.name[i], self.parent[i]
            under_lines[i] = nid == lines_id or (parent >= 0 and under_lines[parent])
            under_verif[i] = nid in verif_ids or (parent >= 0 and under_verif[parent])
        self_t = self.self_times()
        return (float(self_t[under_lines].sum()),
                float(self_t[under_verif & ~under_lines].sum()))

    def save(self, path: str) -> None:
        import numpy as np

        name, parent, start, end = self.arrays()
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name=name, parent=parent,
                     start=start, end=end)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay(cli, tracer: Tracer, workload: str, seed: int) -> dict:
    import workloads

    exit_codes = []
    for inv in workloads.invocations(workload, seed):
        try:
            code = cli.main(list(inv.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        exit_codes.append(code)
    top = tracer.top_level("cli.main")
    replay_s = sum(tracer.duration(i) for i in top)
    layers = tracer.layer_self()
    metrics = {"trace.replay_s": (replay_s, "s")}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (100.0 * layers[layer] / replay_s, "%")
    lines_s, checks_s = tracer.design_shares()
    metrics["hill_spectrum.surface_lines_share"] = (100.0 * lines_s / replay_s, "%")
    metrics["verification.checks_share"] = (100.0 * checks_s / replay_s, "%")
    return {"exit_codes": exit_codes, "metrics": metrics}


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def _per_call(fn, args_list, repeats: int = 3) -> float:
    """Median over repeats of the mean time of one call, in seconds."""
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for args in args_list:
            fn(*args)
        samples.append((clock() - t0) / len(args_list))
    return statistics.median(samples)


def _get(mod, name):
    return getattr(mod, name, None) if mod is not None else None


def probe(package, tracer: Tracer, metrics: dict) -> None:
    """Time each layer's public functions; fills ``metrics`` in place."""
    import io

    import numpy as np

    mods = {layer: sys.modules.get(f"{package.__name__}.{layer}") for layer in LAYERS}
    sf, sm, ps, hs, vf = (mods[name] for name in LAYERS[:5])
    derive = _get(sm, "derive_params")
    params = derive(*PROBE_PAIR)

    # scalar and array paths, untraced: the tracer is installed below
    w = [(float(x), params.modulus) for x in np.linspace(-3.0, 3.0, 4000)]
    for label, name in [("special_functions.jacobi_am_us", "jacobi_am"),
                        ("special_functions.jacobi_sncndn_us", "jacobi_sncndn")]:
        fn = _get(sf, name)
        if fn is not None:
            metrics[label] = (1e6 * _per_call(fn, w), "us")
    fn = _get(ps, "closed_form_theta")
    if fn is not None:
        ys = [(float(y), params) for y in np.linspace(0.0, 1.0, 2000)]
        metrics["phi_system.closed_form_theta_us"] = (1e6 * _per_call(fn, ys), "us")
    fn = _get(sm, "metric_f_array")
    if fn is not None:
        y = np.linspace(0.0, 1.0, 1_000_000)
        metrics["surface_model.metric_f_array_ns_per_pt"] = (
            1e9 * _per_call(fn, [(y, params)]) / y.size, "ns")

    tracer.install(package)

    # Hill spectrum and verification; the first full_report fills the line cache
    fn = _get(vf, "full_report")
    if fn is not None:
        since = len(tracer.start)
        fn(*PROBE_PAIR)
        cold = tracer.top_level("verification.full_report", since)[0]
        metrics["verification.full_report_cold_s"] = (tracer.duration(cold), "s")
        for i in range(cold, len(tracer.start)):
            if tracer.names[tracer.name[i]] == "hill_spectrum.surface_lines":
                metrics["hill_spectrum.surface_lines_s"] = (tracer.duration(i), "s")
                break
        since = len(tracer.start)
        report = fn(*PROBE_PAIR)
        warm = tracer.top_level("verification.full_report", since)[0]
        metrics["verification.full_report_s"] = (tracer.duration(warm), "s")
        for child, secs in tracer.children(warm).items():
            layer, name = child.split(".", 1)
            if layer == "verification":
                metrics[f"verification.{name}_s"] = (secs, "s")
        checks = list(report.checks)
        metrics["verification.checks_passed_ratio"] = (
            sum(c.passed for c in checks) / len(checks), "ratio")

    fn = _get(hs, "surface_lines")
    if fn is not None and "hill_spectrum.surface_lines_s" in metrics:
        count = sum(len(line.eigenvalues) for line in fn(params))
        metrics["hill_spectrum.eigenvalues"] = (count, "count")
        metrics["hill_spectrum.ms_per_eigenvalue"] = (
            1e3 * metrics["hill_spectrum.surface_lines_s"][0] / count, "ms")

    fn = _get(hs, "extremal_rank")
    if fn is not None:
        t0 = time.perf_counter()
        rep = fn(*PROBE_PAIR)
        metrics["hill_spectrum.extremal_rank_s"] = (time.perf_counter() - t0, "s")
        anchors = [v for key, v in rep.residuals.items() if key.startswith("anchor")]
        metrics["hill_spectrum.anchor_err_max"] = (max(anchors), "1")
        flags = rep.residuals.get("double_root_flags", 0)
        metrics["hill_spectrum.anomaly_flags"] = (
            len(flags) if isinstance(flags, (list, tuple)) else int(flags), "count")

    fn = _get(hs, "floquet")
    if fn is not None:
        fn(1.0, 1.0, params)
        metrics["hill_spectrum.floquet_ms"] = (
            1e3 * _per_call(fn, [(1.0, 1.0, params)], repeats=7), "ms")

    fn = _get(hs, "branch_monotonicity")
    if fn is not None:
        for width in (1, 8, 32):
            grid = np.linspace(0.5, params.n - 0.5, width)
            t0 = time.perf_counter()
            fn(params, 0, grid)
            metrics[f"hill_spectrum.monotonicity_s.p{width}"] = (
                time.perf_counter() - t0, "s")

    fn = _get(ps, "integrate_system")
    if fn is not None:
        t0 = time.perf_counter()
        fn(params, tol=1e-13, n_points=1024)
        metrics["phi_system.integrate_system_s"] = (time.perf_counter() - t0, "s")

    # mesh sampling and the two writers
    r, k, grid = MESH_PROBE
    mesh_params = derive(r, k)
    fn = _get(sm, "immersion_rows")
    if fn is not None:
        t0 = time.perf_counter()
        rows = fn(mesh_params, grid, grid)
        secs = time.perf_counter() - t0
        metrics["surface_model.immersion_rows_s"] = (secs, "s")
        metrics["surface_model.immersion_us_per_pt"] = (1e6 * secs / grid ** 2, "us")
        for fmt in ("csv", "json"):
            writer = _get(sm, f"write_immersion_{fmt}")
            if writer is not None:
                t0 = time.perf_counter()
                writer(io.StringIO(), mesh_params, rows)
                metrics[f"surface_model.write_immersion_{fmt}_s"] = (
                    time.perf_counter() - t0, "s")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["replay", "probe"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    cli = importlib.import_module("lawson_bipolar.cli")
    import_s = time.perf_counter() - t0
    package = sys.modules["lawson_bipolar"]

    tracer = Tracer()
    result = {"metrics": {"cli.import_s": (import_s, "s")}, "errors": []}
    try:
        if args.mode == "replay":
            tracer.install(package)
            out = replay(cli, tracer, args.workload, args.seed)
            result["exit_codes"] = out["exit_codes"]
            result["metrics"].update(out["metrics"])
        else:
            probe(package, tracer, result["metrics"])
    except Exception:   # reported as a failed operation by run.py
        result["errors"].append(traceback.format_exc())
    result["spans"] = tracer.summary()
    tracer.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
