"""Exact workbench for online packet scheduling with agreeable deadlines.

The package exports nothing itself; import the submodules: ``model``,
``offline``, ``policies``, ``engine``, ``analysis`` and ``cli``.
"""

__version__ = "0.1.0"
