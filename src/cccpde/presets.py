"""Names of the synthetic dataset presets.

`cccpde.data` builds each preset with numpy; the names live here, apart
from it, so the CLI parser can offer them as choices without importing
numpy.
"""

PRESETS = ("separable", "overlap", "openset", "composite")
