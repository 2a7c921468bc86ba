"""The scalar azimuth binning rule, the oracle that `geometry.azimuth_bins`
is checked against point by point."""

import math


def azimuth_bin(p, binning) -> int:
    """Region index k = floor((theta + pi) / bin_width) mod n, theta =
    atan2(y, x), of one point off the z-axis, in math-module floats."""
    theta = math.atan2(float(p[1]), float(p[0]))
    return int(math.floor((theta + math.pi) / binning.bin_width)) % binning.n
