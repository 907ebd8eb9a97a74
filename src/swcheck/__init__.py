"""swcheck: algebraic and differential machinery of Seiberg-Witten like
equations on 5-dimensional contact metric manifolds, with a residual
certifier for every identity in the chain and for the closed-form solution
on constant negative Webster scalar curvature.

Modules
-------
extalg     exterior algebra, contact Hodge star, self-dual decomposition
cliff5     exact Clifford representation on C^4 and the spinor bilinears
curvature  admissible Webster-Ricci tensors, torsion, curvature symmetries
poly       polynomial coefficient expressions and their grammar
models     Heisenberg chart, model files, axiom validators
dirac_sw   spinorial connection, Dirac operators, the equations and their
           canonical solution
cli        the ``swcheck`` command-line front end
"""

__version__ = "0.1.0"
