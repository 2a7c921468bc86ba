"""smvslab: scan-matching vulnerability analysis and LiDAR-spoofing simulation."""

__version__ = "0.1.0"
