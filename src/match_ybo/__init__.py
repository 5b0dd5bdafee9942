"""Charge-conserving Yang-Baxter operators from matching data.

The library constructs every invertible charge-conserving solution of the
Yang-Baxter equation on a tensor square from combinatorial matching data
(nations, counties, county order, parts), verifies the braid relation three
independent ways, and recovers the data back from raw matrices.

Import from the modules, e.g. `from match_ybo.recipe import rec`.
"""

# perfbench/test_perfbench.py asserts `match_ybo.classify is cli.classify`;
# the line goes once the benchmark stops reading it (ROADMAP item 1).
from .classify import classify

__version__ = "0.1.0"
