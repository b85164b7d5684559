"""The fixed sets of names and orders the engines accept.

`model` checks the sign convention against `CONVENTIONS`, `mc` the
distributional identity against `IDENTITIES` and `applications` the
polykay order against `POLYKAY_ORDERS`; the CLI checks its options against
the same sets.  The module imports nothing, so the CLI can check a
request's options before it loads numpy or an engine.
"""

CONVENTIONS = ("paper", "standard")
IDENTITIES = ("df-additivity", "sheffer", "m-split")
POLYKAY_ORDERS = range(1, 5)
