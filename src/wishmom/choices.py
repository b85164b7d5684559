"""The fixed sets of names the engines accept.

`model` checks the sign convention against `CONVENTIONS` and `mc` the
distributional identity against `IDENTITIES`; the CLI offers both as
argument choices.  The module imports nothing, so the CLI can check a
request's options before it loads numpy or an engine.
"""

CONVENTIONS = ("paper", "standard")
IDENTITIES = ("df-additivity", "sheffer", "m-split")
