"""Numerical laboratory for a two-species chemotaxis system with nonlocal
Lotka-Volterra coupling: hypothesis regions, constant states, a-priori
bounds, a PDE stepper, bounding-rectangle ODEs, and trajectory diagnostics.

Each name is imported from the submodule that defines it; importing the
package imports none of them, and so not SciPy either.
"""

__version__ = "0.1.0"
