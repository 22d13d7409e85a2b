"""Random sums in the convolution algebra, for tests only.

random_conv_element draws a sum of 1-2 terms <u | E>, with E from the
non-flat bisections registered now, so a draw after products were
registered can name a product by its content id.  The phi-homomorphism
suite draws single terms with suites._single_terms instead; the tests keep
this draw as an oracle on sums.
"""

from convbialg.conv import ConvElement
from convbialg.suites import _random_uea


def random_conv_element(rng, model) -> ConvElement:
    A = model.algebroid
    pool = [E for E in model.registry.values() if not E.is_flat]
    pairs = []
    for _ in range(rng.randint(1, 2)):
        E = rng.choice(pool)
        pairs.append((E.bid, _random_uea(rng, A, max_deg=2)))
    return ConvElement(model, pairs)
