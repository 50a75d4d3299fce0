"""Numerical toolkit: vMF-similarity margin losses, proxy regularizers,
depth-map rotation rendering, and hypersphere extreme-value statistics.

Modules
-------
io_formats      binary tensor container, 16-bit PGM / PPM, key=value config, CSV metrics
sphere_math     log-domain Bessel I, vMF similarity from (S, ||z||), adjoints and their backward
uamf            margin softmax over vMF similarities with EMA-adaptive margin
proxy_losses    pps / pns / pp / sns regularizers and the epoch-mid schedule
sphere_stats    extreme-value estimates for uniform unit vectors, MC checks, spread trackers
depth_renderer  depth back-projection, rigid transform, scatter-min reprojection, shading
recon_losses    Laplace / perceptual NLLs, depth smoothness, view variance
train_harness   synthetic data generation, SGD training loop, gradient checks, histograms
"""

__version__ = "0.1.0"
