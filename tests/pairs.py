"""Surface parameters named by the profile pair (n, m), which several
tests find easier to read than the Lawson pair (r, k)."""

import math

from lawson_bipolar.surface_model import InvalidParametersError, SurfaceParams, derive_params


def params_from_nm(n: int, m: int) -> SurfaceParams:
    """Recover the (r, k) pair whose bipolar surface has profile (n, m)."""
    n, m = int(n), int(m)
    if not (n > m >= 1) or math.gcd(n, m) != 1:
        raise InvalidParametersError(f"need coprime n > m >= 1, got ({n},{m})")
    if (n - m) % 2 == 0:
        # both odd: the even-rk branch
        return derive_params((n + m) // 2, (n - m) // 2)
    return derive_params(n + m, n - m)
