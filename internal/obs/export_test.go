package obs

// Trace exposes the merged trace the views render, for the tests.
var Trace = (*Observer).trace
