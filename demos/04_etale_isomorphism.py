"""For an etale action groupoid the algebroid has rank zero, the
convolution algebra is spanned by degree-0 terms, and the representation
is an isomorphism onto the degree-0 distribution span.  The algebra also
carries a full Hopf-algebroid structure with an antipode.

Run:  python3 demos/04_etale_isomorphism.py
"""

from convbialg import (
    CoeffFn,
    ConvElement,
    Polynomial,
    TransvDist,
    UEAElement,
    antipode_etale,
    conv_coproduct,
    conv_counit,
    conv_eq,
    conv_mul,
    etale_model,
    kernel_test,
    phi,
)

model = etale_model()
A = model.algebroid
f = CoeffFn(A.chart, Polynomial.parse("x0 + 1", 1))
g = CoeffFn(A.chart, Polynomial.parse("2*x0", 1))

a = ConvElement.single(model, model.lookup("d"), UEAElement.from_coeff(A, f))
b = ConvElement.single(model, model.lookup("sh"), UEAElement.from_coeff(A, g))

print("a        =", a.text())
print("b        =", b.text())
print("a . b    =", conv_mul(a, b).text())
print("eps(a)   =", conv_counit(a).text())
print("S(a)     =", antipode_etale(a).text())
print("S(S(a)) == a?", antipode_etale(antipode_etale(a)) == a)
print("S anti-homomorphism?",
      antipode_etale(conv_mul(a, b)) == conv_mul(antipode_etale(b), antipode_etale(a)))
print("Delta(a) terms:", list(conv_coproduct(a).terms))

# Phi is injective: the kernel test agrees with the algebra's zero test
print()
print("kernel_test(a - a):", kernel_test(a - a)["in_kernel"])
print("kernel_test(a - b):", kernel_test(a - b)["in_kernel"])

# ... and surjective onto the degree-0 span: constructive preimage
T = TransvDist.single(model, model.lookup("d"), UEAElement.from_coeff(A, f))
E = model.lookup("d")
pre = ConvElement.single(model, E, UEAElement.from_coeff(A, E.to_target(f)))
print()
print("target distribution:", T.text())
print("constructed preimage:", pre.text())
print("Phi(preimage) == target?", phi(pre) == T)
