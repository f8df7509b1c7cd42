"""Benchmark workloads: inputs made from the seed, the timed call into fqlab,
and the output checks that decide which operations failed.

An operation is one sweep cell (one ``report.csv`` row) or one theory
estimate.  Each operation yields a check verdict, its output text (compared
across repeats, which must agree byte for byte) and its numbers (compared bit
for bit with ``reference.json``).  Why each workload exists, and which layer
metrics it is meant to move, is written down in NOTES.md.
"""
from __future__ import annotations

import json
import math
import re
import statistics
import struct
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUT_SETS = 8   # seeds map onto this many input sets, each with recorded reference values

SWEEPS = ("sweep_chain_ope", "sweep_gauss2d")
WORKLOADS = SWEEPS + ("theory_rates",)

# value type of every report.csv column; report_schema.json names the columns
COLUMN_TYPES = {
    "n": "int", "K": "int", "seed": "int", "mode": ("ope", "opl"),
    "data_mode": ("reuse", "split"), "subopt": "float", "max_residual": "float",
    "kappa_hat": "float", "bound_rhs": "float", "bound_slack": "float",
    "final_train_loss": "float", "failed": ("0", "1"),
}
# record-level numbers read from a sweep's report; zero when no sweep runs
SWEEP_RECORDS = ("harness.cells", "harness.cells_failed", "harness.cells_retried",
                 "harness.csv_wrapped_cells", "harness.cell_wall_s.median",
                 "harness.cell_wall_s.max")
_WRAPPED = re.compile(r"^np\.float64\((.*)\)$")


def input_index(seed: int) -> int:
    return seed % INPUT_SETS


def config_path(name: str, toy: bool) -> Path:
    return HERE / "configs" / ("toy" if toy else "") / f"{name}.json"


def make(name: str, seed: int, toy: bool, workdir: Path):
    cls = SweepWorkload if name in SWEEPS else TheoryWorkload
    return cls(name, seed, toy, workdir)


# ---------------------------------------------------------------------------
# report.csv checks


def parse_float(text):
    """(value, wrapped) for a float cell, accepting the np.float64(...) wrapper."""
    match = _WRAPPED.match(text)
    return float(match.group(1) if match else text), match is not None


def check_report(out_dir: Path, expected_cells: int):
    """Parse report.csv against report_schema.json and check every cell.

    Returns (ops, cells, wrapped): ops holds one dict per expected cell with
    keys ok, text, values and problems, cells the parsed column values of each
    row, and wrapped counts np.float64(...) cells.
    """
    schema = json.loads((out_dir / "report_schema.json").read_text())
    columns = list(schema)
    unknown = [c for c in columns if c not in COLUMN_TYPES]
    if unknown:
        raise ValueError(f"schema names columns the checks do not know: {unknown}")
    lines = (out_dir / "report.csv").read_text().splitlines()
    header_ok = bool(lines) and lines[0].split(",") == columns
    rows = lines[1:]
    ops, parsed, wrapped = [], [], 0
    for i in range(max(expected_cells, len(rows))):
        text = rows[i] if i < len(rows) else ""
        problems = [] if header_ok else ["header does not match report_schema.json"]
        values, cells = [], {}
        fields = text.split(",")
        if i >= expected_cells:
            problems.append("unexpected extra row")
        if len(fields) != len(columns):
            problems.append(f"{len(fields)} fields, expected {len(columns)}")
            fields = []
        for col, raw in zip(columns, fields):
            kind = COLUMN_TYPES[col]
            try:
                if kind == "float":
                    value, was_wrapped = parse_float(raw)
                    wrapped += was_wrapped
                    values.append(value)
                    if not math.isfinite(value):
                        problems.append(f"{col} not finite")
                elif kind == "int":
                    value = int(raw)
                else:
                    value = raw
                    if raw not in kind:
                        problems.append(f"{col}={raw!r} not in {kind}")
            except ValueError:
                problems.append(f"{col}={raw!r} does not parse as {kind}")
                continue
            cells[col] = value
        if cells.get("failed") == "1":
            problems.append("cell recorded failed=1")
        for col, low in (("subopt", 0.0), ("kappa_hat", 1.0), ("bound_slack", 0.0)):
            if col in cells and not cells[col] >= low:
                problems.append(f"{col}={cells[col]!r} < {low}")
        ops.append({"ok": not problems, "text": text, "values": values, "problems": problems})
        parsed.append(cells)
    return ops, parsed, wrapped


def values_changed(ops, reference) -> int:
    """Numbers that differ bit for bit from the reference (-1: no reference)."""
    if reference is None:
        return -1
    changed = abs(len(ops) - len(reference))
    for op, ref in zip(ops, reference):
        vals = op["values"]
        changed += abs(len(vals) - len(ref))
        changed += sum(struct.pack("<d", a) != struct.pack("<d", b) for a, b in zip(vals, ref))
    return changed


def load_reference(name: str, seed: int, toy: bool):
    path = HERE / "reference.json"
    if toy or not path.exists():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(input_index(seed)))


# ---------------------------------------------------------------------------
# workloads


class SweepWorkload:
    """``fqlab report`` on a committed config, called in-process through
    ``fqlab.cli.main``; the seed picks the cells' data and training seed."""

    def __init__(self, name, seed, toy, workdir: Path):
        from fqlab import cli, harness  # noqa: F401  (imports every fqlab module)

        self.cli = cli
        cfg = json.loads(config_path(name, toy).read_text())
        cfg["seeds"] = [input_index(seed)]
        self.cfg = cfg
        self.cfg_path = workdir / "config.json"
        self.cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.out = workdir / "report"
        n_cells = 1
        for axis in ("n_values", "k_values", "seeds", "modes", "data_modes"):
            n_cells *= len(cfg[axis])
        self.n_cells = self.expected_ops = n_cells
        self.jobs = int(cfg.get("jobs", 1))

    def run(self):
        self.cli.main(["report", "--config", str(self.cfg_path), "--out", str(self.out)])

    def check(self):
        """Operations plus the record-level numbers read from the report."""
        ops, cells, wrapped = check_report(self.out, self.n_cells)
        payload = json.loads((self.out / "report.json").read_text())
        walls = sorted(payload["timing_seconds_nondeterministic"].values())
        seeds = set(self.cfg["seeds"])
        records = {
            "harness.cells": len(walls),
            "harness.cells_failed": sum(c.get("failed") == "1" for c in cells),
            "harness.cells_retried": sum("seed" in c and c["seed"] not in seeds for c in cells),
            "harness.csv_wrapped_cells": wrapped,
            "harness.cell_wall_s.median": statistics.median(walls) if walls else 0.0,
            "harness.cell_wall_s.max": walls[-1] if walls else 0.0,
        }
        return ops, records


class TheoryWorkload:
    """One pass over the theory estimators on inputs generated from the seed."""

    def __init__(self, name, seed, toy, workdir: Path):
        import numpy as np

        from fqlab import besov, mdp, oracle, rademacher, relunet

        self.np, self.besov, self.rademacher = np, besov, rademacher
        p = json.loads(config_path(name, toy).read_text())
        idx = input_index(seed)
        rng = np.random.default_rng([0x7e0, idx])
        self.functions = []
        for d, kind, alpha in [(1, k, a) for k, a in p["functions_1d"]] + \
                              [(2, k, a) for k, a in p["functions_2d"]]:
            f = besov.synth_function(kind, alpha, d=d, seed=idx,
                                     resolution=p["resolution_1d" if d == 1 else "resolution_2d"])
            self.functions.append((f"{kind}/{d}d/a{alpha}", kind, alpha, f))

        spec = relunet.ArchitectureSpec(**p["arch"])
        self.spec = spec

        def headed_net(net_rng):
            # random hidden layers with a nonzero head, so outputs are not all 0
            net = relunet.ReluNetwork.random(2, spec, net_rng)
            net.weights[-1] = net_rng.uniform(-0.3, 0.3, net.weights[-1].shape)
            net.biases[-1] = np.array([0.5])
            return net

        self.closure_mdp = mdp.make_gaussian_mdp(state_dim=1)
        self.closure_oracle = oracle.build_oracle(self.closure_mdp, p["closure_resolution"])
        self.closure_nets = [headed_net(rng) for _ in range(p["closure_nets"])]
        self.closure_policies = [mdp.UniformPolicy(self.closure_mdp.n_actions), None]
        self.closure_params = besov.BesovParams(alpha=0.5)

        self.xs = rng.random((p["n_points"], 2))
        self.mu = rng.random((2 * p["n_points"], 2))
        self.anchor = headed_net(rng)
        self.radii = p["radii"]
        self.draws = p["draws"]
        self.rng_seed = int(rng.integers(2**31))
        self.net_class = rademacher.NetworkFunctionClass(
            spec, relunet.TrainConfig(**p["class_train"]), 2)
        self.affine = (float(rng.uniform(1e-3, 10.0)), float(rng.uniform(1e-3, 10.0)))
        self.ops = []
        # two per function, closure, one per radius, empirical, two fixed points
        self.expected_ops = 2 * len(self.functions) + len(self.radii) + 4

    def _op(self, name, fn):
        try:
            values, problems = fn()
        except Exception as exc:  # a raising estimate is a failed operation
            values, problems = [], [f"{type(exc).__name__}: {exc}"]
        for v in values:
            if not math.isfinite(v):
                problems.append(f"non-finite value {v!r}")
        self.ops.append({"ok": not problems, "text": f"{name}:{values!r}",
                         "values": values, "problems": problems})
        return values

    def run(self):
        np, besov, rademacher = self.np, self.besov, self.rademacher
        self.ops = []
        for label, kind, alpha, f in self.functions:
            def exponent(f=f, kind=kind, alpha=alpha):
                est = besov.estimate_smoothness_exponent(f, 1, np.inf)
                if est.saturated:
                    return [], ["exponent saturated"]
                problems = []
                if kind == "weierstrass" and abs(est.exponent - alpha) > 0.1:
                    problems.append(f"exponent {est.exponent:.4f} not within 0.1 of {alpha}")
                return [est.exponent], problems

            def seminorm(f=f, alpha=alpha):
                semi = besov.besov_seminorm(f, besov.BesovParams(alpha=alpha))
                return [semi], [] if semi >= 0 else ["negative seminorm"]

            self._op(f"exponent/{label}", exponent)
            self._op(f"seminorm/{label}", seminorm)

        def closure():
            rep = besov.diagnose_dynamic_closure(
                self.closure_mdp, self.closure_oracle, self.closure_nets,
                self.closure_policies, self.closure_params)
            if rep.min_exponent is None:
                return [rep.max_seminorm], ["every closure image saturated"]
            return [rep.min_exponent, rep.max_seminorm], []

        self._op("closure", closure)

        estimates = []
        for k, radius in enumerate(self.radii):
            def localized(radius=radius, k=k):
                est = rademacher.localized_rademacher(
                    self.spec, self.anchor, radius, self.xs, self.mu, self.draws,
                    self.rng_seed + k)
                return [est.value], [] if est.value >= 0 else ["negative estimate"]

            estimates.append(self._op(f"localized/r{radius}", localized))

        def empirical():
            est = rademacher.empirical_rademacher(self.net_class, self.xs, 2 * self.draws,
                                                  self.rng_seed)
            return [est.value], [] if est.value >= 0 else ["negative estimate"]

        self._op("empirical", empirical)

        def tabulated():
            if not all(estimates):
                return [], ["a localized estimate failed"]
            psi = rademacher.SubRootSpec(
                form="tabulated", r_values=np.array(self.radii, dtype=float),
                psi_values=sub_root_table(self.radii, [e[0] for e in estimates],
                                          1.0 / len(self.xs)))
            r_max = 2.0 * max(1.0, float(psi.psi_values[-1]))
            fixed = rademacher.sub_root_fixed_point(psi, r_max, 1e-10)
            gap = abs(float(psi(fixed)) - fixed)
            return [fixed], [] if gap <= 1e-8 else [f"|psi(r*) - r*| = {gap:.2e}"]

        self._op("fixed_point/tabulated", tabulated)

        def affine():
            a, b = self.affine
            psi = rademacher.SubRootSpec(form="affine", a=a, b=b)
            exact = psi.closed_form_fixed_point()
            fixed = rademacher.sub_root_fixed_point(psi, 2 * exact + 1.0, 1e-10)
            gap = abs(fixed - exact)
            return [fixed], [] if gap <= 1e-9 else [f"off the closed form by {gap:.2e}"]

        self._op("fixed_point/affine", affine)

    def check(self):
        return self.ops, dict.fromkeys(SWEEP_RECORDS, 0)


def sub_root_table(radii, estimates, floor):
    """Tabulated psi from a radius ladder of Rademacher estimates.

    Starts from the monotone envelope of estimate + floor and caps each rise
    so that the linear interpolant keeps psi(r)/sqrt(r) nonincreasing: on
    [r0, r1] that needs psi(r1) <= psi(r0) * 2 r1 / (r0 + r1).
    """
    import numpy as np

    out = []
    for k, (r, est) in enumerate(zip(radii, estimates)):
        v = est + floor
        if out:
            prev = out[-1]
            v = min(max(v, prev), prev * 2.0 * r / (radii[k - 1] + r))
        out.append(v)
    return np.array(out)

