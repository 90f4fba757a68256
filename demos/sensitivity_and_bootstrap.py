"""Stability checks: parameter sensitivity and block-bootstrap spread.

The worst-regime statistic depends on two knobs, the lookback window and
the minimum segment length d. The sensitivity grid maps how far the
statistic sits below the full-sample metric across both, and the block
bootstrap shows its sampling spread on resampled return paths.

Run with:  python3 demos/sensitivity_and_bootstrap.py
"""

import datetime

import numpy as np

from minregime import (
    ReturnSeries,
    block_bootstrap_mrp,
    sensitivity_grid,
)


def main():
    rng = np.random.Generator(np.random.Philox(42))
    n = 8 * 252
    rets = rng.normal(0.0005, 0.01, n)
    start = datetime.date(2012, 1, 2)
    series = ReturnSeries(
        dates=tuple(start + datetime.timedelta(days=i) for i in range(n)),
        returns=rets, label="demo")

    lookbacks = [2.0, 4.0, 8.0]
    ds = [0.25, 0.5, 1.0, 2.0]
    grid = sensitivity_grid(series, lookbacks, ds)

    print("worst-regime metric minus full-sample metric")
    header = "lookback\\d " + " ".join(f"{d:>8.2f}" for d in ds)
    print(header)
    for i, lb in enumerate(lookbacks):
        cells = []
        for j in range(len(ds)):
            v = grid.cells[i, j]
            cells.append("   infeas" if np.isnan(v) else f"{v:9.3f}")
        print(f"{lb:>9.1f}y " + "".join(cells))
    print()

    print("pooled marginals:")
    # mean over the feasible cells of each row (lookback) and column (d)
    for lb, v in zip(lookbacks, np.nanmean(grid.cells, axis=1)):
        print(f"  lookback {lb:.1f}y : {v:+.3f}")
    for d, v in zip(ds, np.nanmean(grid.cells, axis=0)):
        print(f"  d {d:.2f}y       : {v:+.3f}")
    print()

    boot = block_bootstrap_mrp(series, block_len=63, replicates=200,
                               d=126, seed=9)
    q = boot.quantiles
    print(f"block bootstrap of the 1-split statistic ({len(boot.values)} "
          f"replicates, block 63):")
    print(f"  mean {boot.mean:+.3f}, sd {boot.sd:.3f}")
    print(f"  5%..95% band: [{q[0.05]:+.3f}, {q[0.95]:+.3f}]")


if __name__ == "__main__":
    main()
