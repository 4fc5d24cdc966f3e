"""Anomalous-sound detection with hierarchical metadata constraints.

Self-supervised dual-head classification (section IDs constrain a low-level
feature, attribute groups a high-level one) with anomaly scores from the
minimum Mahalanobis distance to attribute-group centres.
"""
