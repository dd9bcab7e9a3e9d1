"""Named float tolerances of the datacenter layer.

Budgets, caps and barrier times are sums of floats, so comparing them
exactly would let summation noise decide a branch.  Each comparison that
must not flip on that noise uses one of these constants.  Their values
choose branches, so changing one can move result bytes.
"""

WATT_SLACK = 1e-9
"""Watts a budget, cap or grant may miss a floor, ceiling or target by."""

TIME_SLACK = 1e-9
"""Seconds a barrier may fall short of a fault, kill or retry instant by."""

TARGET_SLACK = 1e-12
"""Watts within which two commanded cap targets are the same command."""

SETTLE_SLACK = 1e-12
"""Seconds short of its horizon at which a machine counts as settled."""

VALIDATION_SLACK = 1e-6
"""Watts a policy's budget may fall short of the pool's cap floor by, or
its caps may miss a machine's cap range or overrun the budget by, and
still pass the control plane's validation.  Looser than
:data:`WATT_SLACK`: it judges what a policy emitted, not the engine's
own sums."""
