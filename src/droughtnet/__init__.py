"""Deterministic discrete-event simulator of a three-tier wireless sensor
network for regional drought-severity prediction: hexagonal coverage
planning, tree/directed-diffusion/flooding data collection with energy
accounting, a central observational database, four-class severity
classification and wind-advection forecasting."""

__version__ = "0.1.0"
