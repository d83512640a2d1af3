package vm

// Steps is the number of instructions m has executed.
func Steps(m *Machine) int64 { return m.steps }
