"""The three benchmark workloads, driven through agmonlab's public API.

Each workload is built once from the seed (its set-up) and then runs whole
passes.  A pass returns one record per operation: an operation fails if it
raised, if any of its verdicts failed, or if its oracle check was out of
tolerance.  Functions are reached through their modules (``solver.trace_at``,
not a bare imported name) so that the tracer's wrappers are the ones called.

Each workload loads one layer and leaves the others nearly idle, so an
optimisation of one layer shows on one workload and predicts "no change" on
the other two.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from agmonlab import agmon, experiments, fcalc, halfplane, models, solver


def _op(name: str, ok: bool, detail: str = "", digest: str | None = None) -> dict:
    return {"op": name, "ok": bool(ok), "detail": detail, "digest": digest}


class Configs:
    """Every shipped config through parse_config + run_experiment.

    This is the ``agmonlab run`` path, in process, for all seven kinds.
    Correctness: every verdict passes, and each CSV is byte-identical to
    the first pass of the run (checked by the caller from the digests).
    """

    def __init__(self, seed: int, work_dir: Path, config_dir: Path):
        self.runs = []
        for path in sorted(config_dir.glob("*.json")):
            payload = experiments.load_config(path)
            for config in experiments.parse_config(
                payload, out_dir=work_dir / path.stem, seed=seed
            ):
                self.runs.append((path.stem, config))
        if not self.runs:
            raise FileNotFoundError(f"no configs in {config_dir}")

    def run_pass(self, jobs: int) -> list[dict]:
        ops = []
        for stem, config in self.runs:
            name = f"{stem}/{config.kind}"
            try:
                result = experiments.run_experiment(config, jobs=jobs)
            except Exception as exc:  # any raise is a failed operation
                ops.append(_op(name, False, f"raised {exc!r}"))
                continue
            failing = [
                v.name for rec in result.records for v in rec.verdicts if not v.passed
            ]
            digest = hashlib.sha256(result.csv_path.read_bytes()).hexdigest()
            ops.append(_op(name, not failing, ",".join(failing), digest))
        return ops


class StripDecay:
    """Curved-level decay on strip-2d: Dijkstra distance, level curves,
    sparse-direct Poisson solves, per-column traces and decay fits."""

    GRID = (128, 129)  # agmon_distance (tangential, normal) nodes
    RHO = (0.05, 0.1, 0.15, 0.2)
    H = (0.05, 0.04)
    FAR = 0.8
    N_NORMAL = 801
    # Zero-section data decays at slope*h = -1; measured -1.0036 (h=0.05)
    # and -1.0027 (h=0.04) on the constant datum.
    SLOPE_TOL = 0.01
    RESIDUAL_TOL = 1e-9

    def __init__(self, seed: int, work_dir: Path, config_dir: Path):
        self.model = models.make_model("strip-2d")
        rng = np.random.default_rng(seed)
        # positive, low-frequency boundary data: 1 plus three seeded
        # harmonics of total amplitude at most 1/2
        amps = rng.uniform(0.0, 1.0 / 6.0, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, 3)

        def datum(x):
            return 1.0 + sum(
                a * np.cos((m + 1) * x + p) for m, (a, p) in enumerate(zip(amps, phases))
            )

        length = self.model.lengths[0]
        self.data = {
            h: halfplane.make_boundary_function(datum, self.GRID[0], length, h)
            for h in self.H
        }

    def run_pass(self, jobs: int) -> list[dict]:
        try:
            field = agmon.agmon_distance(self.model, grid_sizes=self.GRID)
            levels = [agmon.level_set_at(field, rho) for rho in self.RHO]
        except Exception as exc:  # the decay ops below need the levels
            failed = _op("distance", False, f"raised {exc!r}")
            return [failed] + [_op(f"decay h={h}", False, "no levels") for h in self.H]
        ops = [_op("distance", True)]
        for h in self.H:
            name = f"decay h={h}"
            try:
                bvp = solver.poisson_bvp(
                    self.model,
                    self.data[h],
                    h,
                    far=self.FAR,
                    n_normal=self.N_NORMAL,
                    rho_max=max(self.RHO),
                )
                traces = [solver.trace_at(bvp, level) for level in levels]
                fit = solver.decay_fit(traces, self.RHO, h)
            except Exception as exc:
                ops.append(_op(name, False, f"raised {exc!r}"))
                continue
            deviation = abs(fit.slope_times_h + 1.0)
            residual = bvp.meta["residual"]
            ok = deviation <= self.SLOPE_TOL and residual <= self.RESIDUAL_TOL
            ops.append(
                _op(name, ok, f"|slope*h+1|={deviation:.3g} residual={residual:.3g}")
            )
        return ops


class WindowCalculus:
    """Cauchy-integral window calculus (hs_apply) against the spectral oracle.

    Catalogue level-circle operators (through exterior_mass on assembled
    torus mode traces) take the batched-Thomas fallback inside hs_apply;
    seeded random dense symmetric operators take the recurrence fast path.
    """

    H = 0.1
    LAM = 4.0
    CATALOGUE_N = (32, 48)
    DENSE_N = (96, 128)
    DENSE_LAM, DENSE_H = 4.0, 0.05
    TOL = 1e-6  # operator norm; for masses, relative to ||u||^2

    def __init__(self, seed: int, work_dir: Path, config_dir: Path):
        self.model = models.make_model("separable-torus")
        rng = np.random.default_rng(seed)
        transverse = solver.solve_transverse_modes(
            self.model, self.H, self.model.energy, 1, n=512, parity="even"
        )[0]
        self.traces = []
        for n in self.CATALOGUE_N:
            modes = [
                fcalc.surface_trace_of_mode(
                    solver.assemble_separable_mode(
                        transverse, k, self.model, n_tangential=n
                    ),
                    self.model,
                )
                for k in range(n // 2)
            ]
            weights = rng.normal(size=len(modes))
            values = sum(w * m.values for w, m in zip(weights, modes))
            self.traces.append(
                solver.BoundaryTrace(values=values, level=modes[0].level, rho=0.0, h=self.H)
            )
        self.ext = fcalc.almost_analytic_extension(self.DENSE_LAM, self.DENSE_H)
        self.operators = []
        for n in self.DENSE_N:
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            P = (q * rng.uniform(0.0, 4.0 * self.ext.scale, n)) @ q.T
            self.operators.append(0.5 * (P + P.T))

    def run_pass(self, jobs: int) -> list[dict]:
        ops = []
        for trace in self.traces:
            name = f"exterior-mass n={trace.values.size}"
            try:
                hs = fcalc.exterior_mass(trace, self.model, self.LAM, self.H, path="hs")
                ref = fcalc.exterior_mass(
                    trace, self.model, self.LAM, self.H, path="spectral"
                )
            except Exception as exc:
                ops.append(_op(name, False, f"raised {exc!r}"))
                continue
            norm_sq = trace.ambient_norm**2
            err = abs(hs - ref) / norm_sq
            ops.append(
                _op(name, err <= self.TOL, f"err={err:.3g} fraction={ref / norm_sq:.3f}")
            )
        for P in self.operators:
            name = f"hs_apply dense n={P.shape[0]}"
            try:
                err = float(
                    np.linalg.norm(
                        fcalc.hs_apply(P, self.ext) - fcalc.spectral_calculus(P, self.ext),
                        2,
                    )
                )
            except Exception as exc:
                ops.append(_op(name, False, f"raised {exc!r}"))
                continue
            ops.append(_op(name, err <= self.TOL, f"err={err:.3g}"))
        return ops


WORKLOADS = {
    "configs": Configs,
    "strip-decay": StripDecay,
    "window-calculus": WindowCalculus,
}
