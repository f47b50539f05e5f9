// Fixture: must trip exactly the undocumented-knob rule.
// The knob named below is deliberately absent from README.md.

inline const char* knob_name() { return "ICC_NOT_A_DOCUMENTED_KNOB"; }
