"""Heath-Jarrow-Morton Monte-Carlo swaption pricing (paper Section 4.1).

The PARSEC ``swaptions`` benchmark prices a portfolio of European payer
swaptions by Monte-Carlo simulation of the HJM forward-rate curve.  This
module implements a two-factor discrete HJM model:

* the forward curve ``F(t, T)`` lives on a tenor grid with spacing
  ``DELTA`` years;
* each step evolves the curve under the risk-neutral drift (the discrete
  no-arbitrage HJM drift ``sigma(T) * integral_0^T sigma(s) ds`` per
  factor) plus two Brownian shocks — a level factor and an exponentially
  damped slope factor;
* at the option maturity the payoff ``max(swap_value, 0)`` is discounted
  along the simulated money-market account.

Accuracy improves like ``1/sqrt(trials)`` while cost grows linearly — the
trade-off the ``-sm`` dynamic knob navigates.  Trials are generated from a
per-swaption seeded stream in row-major order, so pricing with ``n``
trials uses exactly the first ``n`` trials of the stream: knob settings
share common random numbers, as rerunning the binary with a different
``-sm`` value would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Swaption", "price_swaption", "simulation_work", "DELTA", "FACTORS"]

DELTA = 0.25
"""Tenor grid spacing in years."""

FACTORS = 2
"""Number of Brownian factors driving the forward curve."""

_DAMPING = 0.5
"""Mean-reversion-style damping of the slope factor's maturity profile."""


@dataclass(frozen=True)
class Swaption:
    """One European payer swaption.

    Attributes:
        identifier: Stable id; seeds the simulation stream.
        maturity_years: Option expiry (start of the underlying swap).
        tenor_years: Length of the underlying swap after expiry.
        strike: Fixed rate of the underlying swap.
        initial_rate: Flat initial forward-rate level.
        curve_slope: Linear slope of the initial forward curve per year.
        volatility: Level-factor volatility of forward rates.
    """

    identifier: int
    maturity_years: float = 1.0
    tenor_years: float = 2.0
    strike: float = 0.04
    initial_rate: float = 0.04
    curve_slope: float = 0.002
    volatility: float = 0.012

    def __post_init__(self) -> None:
        if self.maturity_years <= 0 or self.tenor_years <= 0:
            raise ValueError("maturity and tenor must be positive")
        if self.volatility < 0:
            raise ValueError("volatility must be non-negative")

    @property
    def maturity_steps(self) -> int:
        """Simulation steps to option expiry."""
        return max(1, round(self.maturity_years / DELTA))

    @property
    def tenor_steps(self) -> int:
        """Fixed-leg payment count of the underlying swap."""
        return max(1, round(self.tenor_years / DELTA))

    @property
    def grid_points(self) -> int:
        """Forward-curve grid length needed for this contract."""
        return self.maturity_steps + self.tenor_steps + 1


def _volatility_profile(swaption: Swaption, grid: int) -> np.ndarray:
    """Per-factor volatility as a function of time-to-maturity, (FACTORS, grid)."""
    maturities = np.arange(grid) * DELTA
    level = np.full(grid, swaption.volatility)
    slope = 0.6 * swaption.volatility * np.exp(-_DAMPING * maturities)
    return np.stack([level, slope])


def _hjm_drift(vol: np.ndarray) -> np.ndarray:
    """Discrete no-arbitrage drift, summed over factors, shape (grid,).

    For each factor ``mu(T) = sigma(T) * sum_{s<=T} sigma(s) * DELTA``.
    """
    cumulative = np.cumsum(vol, axis=1) * DELTA
    return np.sum(vol * cumulative, axis=0)


def price_swaption(
    swaption: Swaption, trials: int, seed_offset: int = 0
) -> tuple[float, float]:
    """Monte-Carlo price of ``swaption`` using ``trials`` paths.

    Args:
        swaption: The contract to price.
        trials: Number of Monte-Carlo paths (the ``-sm`` knob value).
        seed_offset: Extra seed entropy (distinct experiment repetitions).

    Returns:
        ``(price, standard_error)`` of the discounted payoff estimate.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    grid = swaption.grid_points
    steps = swaption.maturity_steps
    vol = _volatility_profile(swaption, grid)
    drift_step = _hjm_drift(vol) * DELTA
    sqrt_dt = np.sqrt(DELTA)

    rng = np.random.default_rng(1_000_003 * swaption.identifier + seed_offset)
    # Row-major generation: trial i consumes draws [i*steps*FACTORS, ...),
    # independent of the total trial count (common random numbers).
    shocks = rng.standard_normal((trials, steps, FACTORS))

    # Forward curve per trial, shape (trials, grid).
    curve = np.empty((trials, grid))
    curve[:] = swaption.initial_rate + swaption.curve_slope * np.arange(grid) * DELTA
    discount_log = np.zeros(trials)
    # Per-step scratch, reused so the loop allocates nothing; each
    # element is still (curve + drift * DELTA) + shock * sqrt(DELTA).
    shock = np.empty_like(curve)
    evolved = np.empty_like(curve)

    for step in range(steps):
        discount_log -= curve[:, 0] * DELTA
        np.matmul(shocks[:, step, :], vol, out=shock)  # (trials, grid)
        shock *= sqrt_dt
        np.add(curve, drift_step, out=evolved)
        evolved += shock
        # Musiela shift: tomorrow's curve point k is today's k+1 evolved.
        curve[:, :-1] = evolved[:, 1:]
        curve[:, -1] = evolved[:, -1]

    # Swap value at expiry: fixed leg vs par, from the expiry-time curve.
    tenor = swaption.tenor_steps
    forwards = curve[:, :tenor]
    discounts = np.exp(-np.cumsum(forwards * DELTA, axis=1))
    annuity = DELTA * np.sum(discounts, axis=1)
    floating_leg = 1.0 - discounts[:, -1]
    swap_value = floating_leg - swaption.strike * annuity
    payoff = np.maximum(swap_value, 0.0) * np.exp(discount_log)

    price = float(np.mean(payoff))
    if trials > 1:
        stderr = float(np.std(payoff, ddof=1) / np.sqrt(trials))
    else:
        stderr = float("inf")
    return price, stderr


def simulation_work(swaption: Swaption, trials: int) -> float:
    """Abstract work units for pricing with ``trials`` paths.

    Work is dominated by the per-step curve updates: ``trials * steps *
    grid`` elementwise operations, times a constant reflecting the
    arithmetic per element (drift, two factor shocks, discounting).
    """
    per_element_ops = 8.0
    return float(trials) * swaption.maturity_steps * swaption.grid_points * per_element_ops
