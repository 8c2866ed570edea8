package emu

// RaceEnabled is raceEnabled for the tests in package emu_test.
const RaceEnabled = raceEnabled
