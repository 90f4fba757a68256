"""Why the reported minimum is biased, and how fast it diverges.

Under the idealized model the N segment metrics are i.i.d. normal, so
the reported minimum is a normal order statistic. This script compares
three views of its expected shortfall below the true metric:

* exact quadrature,
* the extreme-value (Gumbel) approximation,
* seeded Monte Carlo,

then checks the Gumbel limit directly with a KS distance.

Run with:  python3 demos/selection_bias_and_extremes.py
"""

import math

import numpy as np

from minregime import (
    BiasModel,
    bias_asymptotic,
    bias_exact,
    gumbel_limit_diagnostic,
    simulate_min_model,
)


def main():
    print("bias of the minimum of N standard normals")
    print("N        exact     asymptotic  simulated (3 SE)")
    for n in (2, 10, 100, 10_000):
        model = BiasModel(mu=0.0, sigma=1.0, s=1, n_s=n)
        exact = bias_exact(model)
        asym = f"{bias_asymptotic(model):8.4f}" if n >= 3 else "     n/a"
        sample = simulate_min_model(model, 200_000, seed=n)
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        print(f"{n:<8d} {exact:8.4f}  {asym}    "
              f"{-sample.mean():8.4f} +- {3 * se:.4f}")
    print()
    print("the minimum of two normals has the closed form sigma/sqrt(pi) ="
          f" {1 / math.sqrt(math.pi):.6f}")
    print()

    diag = gumbel_limit_diagnostic(BiasModel(0, 1, 1, 10 ** 4),
                                   trials=20_000, seed=7)
    print("expected minimum keeps falling as the partition count grows:")
    for n, mean, se in diag.drift:
        print(f"  N = {n:<6d} simulated mean {mean:+.4f} (se {se:.4f})")
    print(f"KS distance to the negated-Gumbel limit at N = 1e4: "
          f"{diag.ks_distance:.4f}")


if __name__ == "__main__":
    main()
