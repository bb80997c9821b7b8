"""Mod-2 cohomology of two-point configuration spaces of closed surfaces.

Two independent pipelines compute the same invariants:

* a symbolic one, working in the cohomology ring of the surface square
  and dividing out the image of the diagonal pushforward, and
* a simplicial oracle, running over the orbit complex of the swap on
  the deleted product of an actual triangulation, built from the
  triangulation directly.

On the orbit complex the package takes the polynomial generator action
as the connecting map of the transfer (Smith-Gysin) sequence of the
double cover, decomposes the result into exact truncated towers, and
reads off the Stiefel-Whitney height.  Exactness of the same sequence
gives the ordered space's cohomology with its swap, and the norm map
from the surface's own cocycles checks the action.

The modules are the interface: `conf2.report` runs the pipeline and
`conf2.cli` is the command line; the package root re-exports nothing.
"""

__version__ = "0.1.0"
