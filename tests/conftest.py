"""Shared test oracles."""

import numpy as np
import pytest

from codedlf import transforms


def _tensordot_dct5(x, synthesis):
    x = np.asarray(x, dtype=np.float64)
    for axis, n in enumerate(x.shape):
        mat = transforms._dct_matrix(n)
        x = np.moveaxis(
            np.tensordot(mat.T if synthesis else mat, x, axes=(1, axis)), 0, axis
        )
    return x


@pytest.fixture
def tensordot_dct5():
    """The per-axis tensordot + moveaxis 5D DCT (test oracle).

    tensordot_dct5(x, synthesis) applies the analysis transform, or the
    synthesis transform when synthesis is true.  Its results are not
    C-contiguous: the last axis transformed comes out with the largest stride.
    """
    return _tensordot_dct5
