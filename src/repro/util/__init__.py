"""Shared utilities: the online estimator behind the ETS estimate."""

from repro.util.stats import Ewma

__all__ = ["Ewma"]
