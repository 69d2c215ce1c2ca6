package mpi

// RaceEnabled reports whether the race detector is on, for the package's
// external tests.
const RaceEnabled = raceEnabled
