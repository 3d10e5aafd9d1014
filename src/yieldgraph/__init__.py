"""County-level crop yield prediction with graph and temporal neural models."""

__version__ = "0.1.0"
