"""Per-point local Hessians of a linearization, the oracle that the
linearization tests check `matching.linearize` against, and the skew
matrices they are built from.

With q = T a the matched source point at the linearization pose and
J = [skew(q) | -I], a matched point's local Hessian is J^T W J; the local
Hessians sum to the global H that `linearize` builds without forming them.
"""

import numpy as np


def skew(v) -> np.ndarray:
    """3x3 skew matrix S with S w = v x w."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def skew_batch(vs) -> np.ndarray:
    """(n, 3, 3) skew matrices S with S w = v x w, one per row of `vs`."""
    vs = np.asarray(vs, dtype=np.float64).reshape(-1, 3)
    out = np.zeros((len(vs), 3, 3))
    out[:, 0, 1] = -vs[:, 2]
    out[:, 0, 2] = vs[:, 1]
    out[:, 1, 0] = vs[:, 2]
    out[:, 1, 2] = -vs[:, 0]
    out[:, 2, 0] = -vs[:, 1]
    out[:, 2, 1] = vs[:, 0]
    return out


def matched_hessians(system) -> np.ndarray:
    """(m, 6, 6) local Hessians J^T W J of a LinearSystem's matched points."""
    q = system.points
    eye = np.broadcast_to(np.eye(3), (len(q), 3, 3))
    jd = np.concatenate([skew_batch(q), -eye], axis=2)
    return jd.transpose(0, 2, 1) @ system.weights @ jd


def local_hessians(system) -> np.ndarray:
    """(N, 6, 6) local Hessians of every source point; zero for unmatched ones."""
    out = np.zeros((len(system.correspondences), 6, 6))
    out[system.correspondences >= 0] = matched_hessians(system)
    return out
