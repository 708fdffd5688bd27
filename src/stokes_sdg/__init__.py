"""Pressure-robust staggered DG discretization of the Stokes equations on
convex polygonal meshes, with an H(div) velocity reconstruction in the load
term (method "sdg1") next to the plain piecewise-constant load ("sdg2")."""
