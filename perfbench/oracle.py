"""Oracle workload driver: the independent checks, run in one process.

Draws random model points from --seed and writes the raw values the
benchmark's gates compare, as one JSON document:

  draws     [alpha2, beta2, e0] of equilibrium_closed_form, then the same of
            equilibrium_numeric, per accepted draw (points the closed form
            refuses are skipped, as in acceptance criterion 5);
  spectra   (eps_minus, eps_plus) of excitation_spectrum, then of
            normal_phase_spectrum, at normal-phase points;
  measures  z, target, theta, sign, probability, delta and the real parts of
            rho_00, rho_01, rho_10, rho_11 of an angle_for_target_delta ->
            measure round trip.

The functions are called through their modules, so a tracer installed with
--spans sees every call.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--draws", type=int, required=True)
    ap.add_argument("--spectra", type=int, required=True)
    ap.add_argument("--measures", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="record spans and write them here")
    args = ap.parse_args(argv)

    recorder = None
    if args.spans:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()

    import numpy as np

    from iddm import fluctuations, meanfield, measurement
    from iddm.errors import IDDMError
    from iddm.model import ModelParams

    rng = np.random.default_rng(args.seed)

    def point():
        params = ModelParams(omega=rng.uniform(1.0, 500.0), lam=rng.uniform(0.0, 30.0),
                             kappa=rng.uniform(-2.0, 2.0))
        return params, rng.uniform(-1.0, 1.0)

    draws = []
    while len(draws) < args.draws:
        params, delta = point()
        try:
            closed = meanfield.equilibrium_closed_form(params, delta)
        except IDDMError:
            continue
        numeric = meanfield.equilibrium_numeric(params, delta)
        draws.append([closed.alpha2, closed.beta2, closed.e0,
                      numeric.alpha2, numeric.beta2, numeric.e0])

    spectra = []
    while len(spectra) < args.spectra:
        params, delta = point()
        try:
            reference = fluctuations.normal_phase_spectrum(params, delta)
        except IDDMError:
            continue
        res = fluctuations.excitation_spectrum(params, delta)
        spectra.append([res.eps_minus, res.eps_plus, *reference])

    measures = []
    for _ in range(args.measures):
        z = rng.uniform(0.0, 1.0)
        target = rng.uniform(-z, z)
        theta, sign = measurement.angle_for_target_delta(z, target)
        outcome = measurement.measure(measurement.WernerState(z),
                                      measurement.ProjectiveMeasurement(theta, sign))
        rho = outcome.density_matrix.real
        measures.append([z, target, theta, 1.0 if sign is measurement.Sign.PLUS else -1.0,
                         outcome.probability, outcome.delta,
                         rho[0, 0], rho[0, 1], rho[1, 0], rho[1, 1]])

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"draws": draws, "spectra": spectra,
                   "measures": [[float(x) for x in m] for m in measures]}, fh)
    if recorder is not None:
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
