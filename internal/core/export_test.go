package core

// WindowHintOps exposes the ops feeding the grid's adaptive
// time-bucket hint to the external tests.
var WindowHintOps = windowHintOps
