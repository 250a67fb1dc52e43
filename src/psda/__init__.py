"""Pseudo-semantic data augmentation over multilingual embeddings.

The library API is the submodules (``psda.gmm``, ``psda.otreg``, ...).
Importing the package loads nothing else, so the command-line front end
can pin BLAS thread counts before numpy loads.
"""

__version__ = "0.1.0"
