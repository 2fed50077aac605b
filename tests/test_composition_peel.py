"""A composition's image and sup facts, read off one peel.

`SymbolMap.peel` writes phi(D) = factor * leaf(D); `geometry.image_of` maps
the leaf to a base, and `ComposedMap.sup_norm_hint` and `.sup_bound` read
the peel.  `composition_catalog.json` holds, for the leaves of every kind
and their two- and three-level compositions, the Image fields (base,
repr(factor), repr(modulus)) and repr(sup_norm_hint) as they read when
`image_of` peeled compositions in branches of its own.  None of them may
move, but for the compositions that contain a composition of automorphisms
(or -z, now an automorphism), listed in CHANGED with the value they read
now.
"""

import json
from pathlib import Path

import numpy as np

from compopnum import geometry
from compopnum.symbols import builtin_contractions, parse_symbol

CATALOG = json.loads((Path(__file__).parent / "composition_catalog.json").read_text())

# an inner factor that became an automorphism: the composition keeps the
# outer image (or is itself onto); a scaled disk reads the outer factor,
# since a rotation of the disk is the disk
_CUSP = (["cusp", "1.0", "1.0"], "1.0")
_DISK = (["disk", "1.0", "1.0"], "1.0")
CHANGED = {
    "compose(cusp,compose(moebius:u=0.3+0i,moebius:u=0.2+0i))": _CUSP,
    "compose(cusp,coeffs:[0,-1])": _CUSP,
    "compose(cusp,compose(affine:r=1,theta=1,moebius:u=0.3+0i))": _CUSP,
    "compose(cusp,compose(moebius:u=0+0i,moebius:u=0.3+0i))": _CUSP,
    "compose(cusp,compose(moebius:u=0.3+0i,affine:r=1,theta=1))": _CUSP,
    "compose(cusp,compose(moebius:u=0.3+0i,moebius:u=0+0i))": _CUSP,
    "compose(cusp,compose(moebius:u=0.3+0i,moebius:u=0.3+0i))": _CUSP,
    "compose(affine:r=0.9,compose(affine:r=1,theta=1,moebius:u=0.3+0i))":
        (["disk", "(0.9+0j)", "0.9"], "0.9"),
    "compose(affine:r=0.6,theta=2,compose(affine:r=1,theta=1,moebius:u=0.3+0i))":
        (["disk", "(-0.24968810192828544+0.545578456095409j)", "0.6"], "0.6"),
    "compose(affine:r=1,theta=1,compose(affine:r=1,theta=1,moebius:u=0.3+0i))":
        (["disk", "(0.5403023058681398+0.8414709848078965j)", "1.0"], "1.0"),
    "compose(moebius:u=0+0i,compose(affine:r=1,theta=1,moebius:u=0.3+0i))": _DISK,
    "compose(moebius:u=0+0i,compose(moebius:u=0+0i,moebius:u=0.3+0i))": _DISK,
    "compose(moebius:u=0+0i,compose(moebius:u=0.3+0i,affine:r=1,theta=1))": _DISK,
    "compose(moebius:u=0+0i,compose(moebius:u=0.3+0i,moebius:u=0+0i))": _DISK,
    "compose(moebius:u=0+0i,compose(moebius:u=0.3+0i,moebius:u=0.3+0i))": _DISK,
    "compose(moebius:u=0.3+0i,compose(affine:r=1,theta=1,moebius:u=0.3+0i))": _DISK,
    "compose(moebius:u=0.3+0i,compose(moebius:u=0+0i,moebius:u=0.3+0i))": _DISK,
    "compose(moebius:u=0.3+0i,compose(moebius:u=0.3+0i,affine:r=1,theta=1))": _DISK,
    "compose(moebius:u=0.3+0i,compose(moebius:u=0.3+0i,moebius:u=0+0i))": _DISK,
    "compose(moebius:u=0.3+0i,compose(moebius:u=0.3+0i,moebius:u=0.3+0i))": _DISK,
    "compose(coeffs:[0.1,0.3,0.2],compose(affine:r=1,theta=1,moebius:u=0.3+0i))":
        (None, "0.6000000000000001"),
    "compose(coeffs:[0.1,0.3,0.2],compose(moebius:u=0+0i,moebius:u=0.3+0i))":
        (None, "0.6000000000000001"),
    "compose(coeffs:[0.1,0.3,0.2],compose(moebius:u=0.3+0i,affine:r=1,theta=1))":
        (None, "0.6000000000000001"),
    "compose(coeffs:[0.1,0.3,0.2],compose(moebius:u=0.3+0i,moebius:u=0+0i))":
        (None, "0.6000000000000001"),
    "compose(coeffs:[0.1,0.3,0.2],compose(moebius:u=0.3+0i,moebius:u=0.3+0i))":
        (None, "0.6000000000000001"),
    # the Moebius sup rule reads the inner leaf, c z, through its scalings:
    # the inner image is the disk of radius 0.7, so (0.7 + 0.3)/(1 + 0.21)
    "compose(moebius:u=0.3+0i,compose(moebius:u=0+0i,"
    "compose(compose(affine:r=0.7,moebius:u=0+0i),moebius:u=0.3+0i)))":
        (None, "0.8264462809917356"),
}


def _facts(s):
    image = geometry.image_of(s)
    fields = None if image is None else [image.base.name, repr(image.factor), repr(image.modulus)]
    return (fields, repr(s.sup_norm_hint))


def test_the_catalog_keeps_its_images_and_exact_sups():
    assert set(CHANGED) <= set(CATALOG) and len(CATALOG) > 600
    for spec in builtin_contractions():
        assert spec.spec_string() in CATALOG
    moved = {}
    for spec, (fields, sup) in CATALOG.items():
        expected = CHANGED.get(spec, (fields, sup))
        if _facts(parse_symbol(spec)) != tuple(expected):
            moved[spec] = _facts(parse_symbol(spec))
    assert not moved, moved


def test_the_peel_is_the_image():
    # image_of reads the peel's factor and modulus, whatever the base
    for spec in CATALOG:
        s = parse_symbol(spec)
        image, (leaf, factor, modulus) = geometry.image_of(s), s.peel
        if image is not None:
            assert (image.factor, image.modulus) == (factor, modulus), spec
            # a leaf peels to itself, unscaled
            assert leaf.peel == (leaf, 1, 1), spec


def test_every_composition_bounds_its_sup():
    # the bound equals the exact sup when one is known and is never beaten
    # on circles out to radius 0.999
    grid = np.outer([0.5, 0.9, 0.999], np.exp(2j * np.pi * np.arange(256) / 256))
    for spec in CATALOG:
        s = parse_symbol(spec)
        assert s.sup_bound <= 1.0, spec
        if s.sup_norm_hint is not None:
            assert s.sup_bound == s.sup_norm_hint, spec
        assert np.abs(s.evaluate(grid)).max() <= s.sup_bound * (1.0 + 1e-12), spec


def test_automorphisms_are_the_isometries():
    # Schwarz-Pick: |phi'| (1 - |z|^2) = 1 - |phi|^2 at every point exactly
    # for the automorphisms; every other symbol here falls to 0.76 or less at
    # one of the points
    z = np.array([0.0, 0.3, -0.5j, 0.2 + 0.6j, -0.7 + 0.1j])
    for spec in CATALOG:
        s = parse_symbol(spec)
        ratio = np.abs(s.derivative(z)) * (1.0 - np.abs(z) ** 2) / (1.0 - np.abs(s.evaluate(z)) ** 2)
        assert s.is_automorphism == bool(np.all(np.abs(ratio - 1.0) < 1e-12)), spec
