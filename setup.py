"""Setuptools shim.

The build configuration lives in ``pyproject.toml``; this file only exists so
that legacy editable installs (``pip install -e . --no-use-pep517``) work on
environments that lack the ``wheel`` package.
"""

from setuptools import setup

setup()
