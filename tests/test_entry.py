"""Checks of the CI "Module entry point" step, run as named Tier-1 tests."""
import dataclasses
import warnings

import numpy as np

from squint import InterferometerConfig, modified_resolution, sweep


def test_mixed_width_sweep_rows_equal_the_solver_bit_for_bit():
    # the CLI's mixed-width sweep, `sweep -G 2 --param alpha1 --min 0 --max 0.3
    # --points 7 --linear --beta2=0.1 --delta1=0.05`, has rows of two model
    # widths, and each of its rows is the device's own modified solve, every
    # float by hex, with every warning an error, as `python -W error` runs it
    base = InterferometerConfig(G=2.0, beta2=0.1, delta1=0.05)
    grid = np.linspace(0.0, 0.3, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        widths = {dataclasses.replace(base, alpha1=float(a))._model[0].shape[1] for a in grid}
        assert len(widths) == 2, widths

        def fields(res):
            return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(res)]

        for a, row in zip(grid, sweep(base, "alpha1", grid)):
            want = modified_resolution(dataclasses.replace(base, alpha1=float(a)))
            assert fields(row) == fields(want), (a, row, want)
