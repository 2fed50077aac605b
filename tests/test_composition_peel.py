"""A composition's image and sup bound, read off one peel and one rule.

`SymbolMap.peel` writes phi(D) = factor * leaf(D) and `geometry.image_of`
maps the leaf to a base; `ComposedMap.sup_bound` is the outer map's largest
modulus on the disk of radius the inner bound.  `composition_catalog.json`
holds, for the leaves of every kind and their two- and three-level
compositions, the Image fields (base, repr(factor), repr(modulus)) and
repr(sup_bound) as they read when a composition kept an exact sup of its own
beside the bound.  None of them may move, but for the entries in CHANGED,
listed with the value they read now: a polynomial c z peels as c times the
identity, and the one rule tightens the bound of a Moebius map over any
inner map and of an outer c w that is itself a composition.  Every exact
sup the catalog recorded is among the entries that do not move.
"""

import json
from pathlib import Path

import numpy as np

from compopnum import geometry
from compopnum.symbols import builtin_contractions, parse_symbol

CATALOG = json.loads((Path(__file__).parent / "composition_catalog.json").read_text())

_DISK_ONE = (["disk", "(1+0j)", "1.0"], "1.0")
_DISK_NEG = (["disk", "(-1+0j)", "1.0"], "1.0")
CHANGED = {
    # c z, alone or as the outer map over an automorphism
    "coeffs:[0,1]": _DISK_ONE,
    "compose(coeffs:[0,1],affine:r=1)": _DISK_ONE,
    "compose(coeffs:[0,1],affine:r=1,theta=1)": _DISK_ONE,
    "compose(coeffs:[0,1],moebius:u=0+0i)": _DISK_ONE,
    "compose(coeffs:[0,1],moebius:u=0.3+0i)": _DISK_ONE,
    "compose(coeffs:[0,1],moebius:u=0.3+0.2i)": _DISK_ONE,
    "compose(coeffs:[0,1],coeffs:[0,1])": _DISK_ONE,
    "coeffs:[0,-1]": _DISK_NEG,
    # a Moebius map over the inner bound s: (s + |u|)/(1 + s|u|), not 1
    "compose(moebius:u=0.3+0i,coeffs:[0,0.5,0.25])": (None, "0.8571428571428571"),
    "compose(moebius:u=0.3+0i,coeffs:[0.1,0.3,0.2])": (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,coeffs:[0,0.5,-0.25])": (None, "0.8571428571428571"),
    "compose(moebius:u=0.3+0.2i,coeffs:[0,0.5,0.25])": (None, "0.8741662773314088"),
    "compose(moebius:u=0.3+0.2i,coeffs:[0.1,0.3,0.2])": (None, "0.789713891764263"),
    "compose(moebius:u=0.3+0.2i,coeffs:[0,0.5,-0.25])": (None, "0.8741662773314088"),
    "compose(moebius:u=0.3+0i,compose(affine:r=0.9,cusp))": (None, "0.9448818897637795"),
    "compose(moebius:u=0.3+0i,compose(affine:r=0.9,coeffs:[0.1,0.3,0.2]))":
        (None, "0.7228915662650603"),
    "compose(moebius:u=0.3+0i,compose(affine:r=0.6,theta=2,cusp))": (None, "0.7627118644067796"),
    "compose(moebius:u=0.3+0i,compose(affine:r=0.6,theta=2,coeffs:[0.1,0.3,0.2]))":
        (None, "0.5956678700361011"),
    "compose(moebius:u=0.3+0i,compose(affine:r=1,theta=1,coeffs:[0.1,0.3,0.2]))":
        (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,compose(moebius:u=0+0i,coeffs:[0.1,0.3,0.2]))":
        (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,compose(moebius:u=0.3+0i,affine:r=0.9))":
        (None, "0.9699386503067484"),
    "compose(moebius:u=0.3+0i,compose(moebius:u=0.3+0i,affine:r=0.6,theta=2))":
        (None, "0.8648275862068965"),
    "compose(moebius:u=0.3+0i,compose(moebius:u=0.3+0i,coeffs:[0.1,0.3,0.2]))":
        (None, "0.8648275862068967"),
    "compose(moebius:u=0.3+0i,compose(coeffs:[0.1,0.3,0.2],cusp))": (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,compose(coeffs:[0.1,0.3,0.2],affine:r=0.9))":
        (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,compose(coeffs:[0.1,0.3,0.2],affine:r=0.6,theta=2))":
        (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,compose(coeffs:[0.1,0.3,0.2],affine:r=1,theta=1))":
        (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,compose(coeffs:[0.1,0.3,0.2],moebius:u=0+0i))":
        (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,compose(coeffs:[0.1,0.3,0.2],moebius:u=0.3+0i))":
        (None, "0.7627118644067798"),
    "compose(moebius:u=0.3+0i,compose(coeffs:[0.1,0.3,0.2],coeffs:[0.1,0.3,0.2]))":
        (None, "0.7627118644067798"),
    # an outer c w that is not an affine map: s times its bound, not its bound
    "compose(coeffs:[0,1],affine:r=0.9)": (None, "0.9"),
    "compose(coeffs:[0,1],affine:r=0.6,theta=2)": (None, "0.6"),
    "compose(coeffs:[0,1],coeffs:[0,0.5,0.25])": (None, "0.75"),
    "compose(coeffs:[0,1],coeffs:[0.1,0.3,0.2])": (None, "0.6000000000000001"),
    "compose(coeffs:[0,1],coeffs:[0,0.5,-0.25])": (None, "0.75"),
    "compose(compose(affine:r=0.9,affine:r=0.9),affine:r=0.9)": (None, "0.7290000000000001"),
    "compose(compose(affine:r=0.9,affine:r=1,theta=1),affine:r=0.9)": (None, "0.81"),
    "compose(compose(affine:r=0.9,moebius:u=0+0i),affine:r=0.9)": (None, "0.81"),
    "compose(compose(affine:r=1,theta=1,affine:r=0.9),affine:r=0.9)": (None, "0.81"),
    "compose(compose(affine:r=1,theta=1,affine:r=1,theta=1),affine:r=0.9)": (None, "0.9"),
    "compose(compose(affine:r=1,theta=1,moebius:u=0+0i),affine:r=0.9)": (None, "0.9"),
    "compose(compose(moebius:u=0+0i,affine:r=0.9),affine:r=0.9)": (None, "0.81"),
    "compose(compose(moebius:u=0+0i,affine:r=1,theta=1),affine:r=0.9)": (None, "0.9"),
    "compose(compose(moebius:u=0+0i,moebius:u=0+0i),affine:r=0.9)": (None, "0.9"),
    # an outer map over such a Moebius composition reads its tighter bound
    "compose(affine:r=0.9,compose(moebius:u=0.3+0i,coeffs:[0.1,0.3,0.2]))":
        (None, "0.6864406779661019"),
    "compose(affine:r=0.6,theta=2,compose(moebius:u=0.3+0i,coeffs:[0.1,0.3,0.2]))":
        (None, "0.4576271186440679"),
    "compose(affine:r=1,theta=1,compose(moebius:u=0.3+0i,coeffs:[0.1,0.3,0.2]))":
        (None, "0.7627118644067798"),
    "compose(moebius:u=0+0i,compose(moebius:u=0.3+0i,coeffs:[0.1,0.3,0.2]))":
        (None, "0.7627118644067798"),
}


def _facts(s):
    image = geometry.image_of(s)
    fields = None if image is None else [image.base.name, repr(image.factor), repr(image.modulus)]
    return (fields, repr(s.sup_bound))


def test_the_catalog_keeps_its_images_and_bounds():
    assert set(CHANGED) <= set(CATALOG) and len(CATALOG) > 600
    for spec in builtin_contractions():
        assert spec.spec_string() in CATALOG
    moved = {}
    for spec, (fields, sup) in CATALOG.items():
        expected = CHANGED.get(spec, (fields, sup))
        if _facts(parse_symbol(spec)) != tuple(expected):
            moved[spec] = _facts(parse_symbol(spec))
    assert not moved, moved
    # a bound that moved only tightened; an image only appeared
    for spec, (fields, sup) in CHANGED.items():
        assert float(sup) <= float(CATALOG[spec][1]), spec
        assert CATALOG[spec][0] in (None, fields), spec


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
    # never beaten on circles out to radius 0.999999; an outer c w is read off
    # its degree, as compose(affine:r=0.9,moebius:u=0.3+0i) peels to 0.9 times
    # the identity yet is 0.9 m(z): over affine:r=0.9 it reaches 0.850, not 0.81
    grid = np.outer([0.5, 0.9, 0.999, 0.999999], np.exp(2j * np.pi * np.arange(1024) / 1024))
    for spec in CATALOG:
        s = parse_symbol(spec)
        assert s.sup_bound <= 1.0, spec
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
