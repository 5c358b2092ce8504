"""The operand forms that the pairing matrices of a Cartan connection stand
for, built from (omega, e) as references for the tests.

`CartanConnection` reads d as a derivative pairing and each bracket as a
trilinear zero mode, so it never builds these forms; the tests pair them
in full to check its matrices and values.
"""

from fractions import Fraction
from functools import cached_property

from cartanforms.calculus import covariant_d, exterior_d, lie_bracket_forms


class ConnectionOperands:
    """A = omega + e, ~A = omega - e and the forms their functionals pair:
    dA, [A,A], d~A, [~A,~A], d omega, [omega, omega], R = d omega +
    1/2 [omega, omega], de, [e,e] and d_omega e, each built on first use."""

    def __init__(self, connection):
        """The operands of connection.omega + connection.coframe."""
        self.omega, self.e = connection.omega, connection.coframe

    @cached_property
    def a(self):
        return self.omega + self.e

    @cached_property
    def da(self):
        return exterior_d(self.a)

    @cached_property
    def aa(self):
        return lie_bracket_forms(self.a, self.a)

    @cached_property
    def a_t(self):
        return self.omega - self.e

    @cached_property
    def da_t(self):
        return exterior_d(self.a_t)

    @cached_property
    def aa_t(self):
        return lie_bracket_forms(self.a_t, self.a_t)

    @cached_property
    def dw(self):
        return exterior_d(self.omega)

    @cached_property
    def ww(self):
        return lie_bracket_forms(self.omega, self.omega)

    @cached_property
    def r(self):
        return self.dw + self.ww.scale(Fraction(1, 2))

    @cached_property
    def de(self):
        return exterior_d(self.e)

    @cached_property
    def ee(self):
        return lie_bracket_forms(self.e, self.e)

    @cached_property
    def dwe(self):
        return covariant_d(self.omega, self.e)
