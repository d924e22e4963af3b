"""Fugitive particulate emission estimation from sparse monitoring data.

A Gaussian-plume forward model with gravitational settling and ground
deposition links time-varying source rates to dustfall-jar and
filter-sampler readings; a three-stage Bayesian inversion (constant
rates, closed-form smooth posterior, positivity via preconditioned
Crank-Nicolson sampling) estimates the rates, and the posterior is
propagated onto a ground deposition map through a low-rank factorization.
"""

__version__ = "0.1.0"
