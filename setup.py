"""Packaging for the proactive spatial-caching reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so that
``pip install -e .`` works through the legacy editable-install path in
offline environments where the ``wheel``/``build`` packages are
unavailable.  Installing exposes the ``repro`` console script (and the
legacy ``repro-spatial-cache`` alias).
"""

from setuptools import find_packages, setup

setup(
    name="repro-spatial-cache",
    version="0.2.0",
    description=("Proactive caching for spatial queries in mobile environments "
                 "(ICDE 2005 reproduction + fleet-scale simulator)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # CI exercises 3.10 and 3.12; the hot dataclasses pass slots=True,
    # which 3.9 does not have.
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
            "repro-spatial-cache = repro.cli:main",
        ],
    },
)
