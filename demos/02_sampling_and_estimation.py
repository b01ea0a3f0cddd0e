"""Estimating Bell magic from measurement samples.

Samples two-copy Bell outcomes of a T state, runs the quadruple-resampling
estimator and compares its spread against the Bernoulli error formula and
the Hoeffding sample-budget bound.
"""
import numpy as np

from bellmagic import estimation as est, simulator as sim, states

rng = np.random.default_rng(1)
dist = sim.bell_distribution(states.t_state())

print("estimator on |T> (true B = 0.5):")
for nq in (100, 1000, 10_000):
    samples = sim.sample(dist, nq, rng)
    b, ba = est.estimate_bell_magic(samples, rng=rng)
    print(f"  N_Q = {nq:6d}: B_hat = {b:.4f}  B_a_hat = {ba:.4f}"
          f"  (predicted std {est.std_bernoulli(0.5, nq):.4f})")

print("\ndisjoint-quadruple mode has the exact Bernoulli error bar:")
nq = 400
vals = [est.estimate_bell_magic(sim.sample(dist, nq, rng), rng=rng,
                               quadruples="disjoint")[0] for _ in range(500)]
print(f"  empirical std over 500 runs: {np.std(vals):.4f}"
      f"  formula: {est.std_bernoulli(0.5, nq):.4f}")

print("\nsample budget for target accuracy (Hoeffding):")
for db in (0.2, 0.1, 0.05):
    print(f"  |error| <= {db} at 95% confidence needs N_Q >= {est.required_samples(db, 0.05)}")

print("\nresampling trials: accuracy saturates around N_R = 10 N_Q")
samples = sim.sample(dist, 1000, rng)
for nr in (250, 1000, 10_000, 50_000):
    errs = [abs(est.estimate_bell_magic(sim.sample(dist, 1000, rng), nr, rng)[0] - 0.5)
            for _ in range(100)]
    print(f"  N_R = {nr:6d}: mean |error| = {np.mean(errs):.4f}")
