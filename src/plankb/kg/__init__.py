"""Triple store, planning ontology schema, axiom validation, and Turtle I/O."""
